//! The end-to-end CLAP pipeline: training (Figure 2) and testing (Figure 3).

use crate::features::{
    extract_connection, FeatureExtractor, FeatureVector, RangeModel, NUM_BASE, NUM_RAW,
};
use crate::profile::{ProfileBuilder, GATE_FEATURES, PROFILE_LEN};
use crate::resident::{ResidentArena, ResidentMode};
use crate::score::ScoredConnection;
use crate::scorer::{Flow, Scorer};
use net_packet::Connection;
use neural::{
    AeEngine, Autoencoder, AutoencoderConfig, GruClassifier, GruClassifierConfig, GruEngine,
    Matrix, QuantMode, TrainReport,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tcp_state::{label_connection, NUM_CLASSES};

/// Full pipeline configuration (Table 6 hyper-parameters + presets).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClapConfig {
    pub rnn: GruClassifierConfig,
    pub ae: AutoencoderConfig,
    /// Profiles per stacked window (paper: 3).
    pub stack: usize,
    /// Profiles averaged around the error peak for the adversarial score
    /// (paper: 5).
    pub score_window: usize,
}

impl ClapConfig {
    /// Paper-scale hyper-parameters (Table 6): RNN 30 epochs, AE 1000
    /// epochs. Expensive — intended for full reproductions.
    pub fn paper() -> Self {
        let mut rnn = GruClassifierConfig::clap_paper(NUM_CLASSES);
        rnn.input = NUM_BASE;
        let stack = 3;
        let mut ae = AutoencoderConfig::clap_paper(stack * crate::profile::PROFILE_LEN);
        rnn.epochs = 30;
        ae.epochs = 1000;
        ClapConfig {
            rnn,
            ae,
            stack,
            score_window: 5,
        }
    }

    /// Minutes-scale preset: same architecture, fewer epochs. The default
    /// for the experiment binaries.
    pub fn quick() -> Self {
        let mut cfg = Self::paper();
        cfg.rnn.epochs = 20;
        cfg.rnn.batch_size = 8;
        cfg.ae.epochs = 60;
        cfg.ae.learning_rate = 2e-3;
        cfg
    }

    /// Seconds-scale preset for unit/integration tests.
    pub fn ci() -> Self {
        let mut cfg = Self::paper();
        cfg.rnn.epochs = 12;
        cfg.rnn.batch_size = 8;
        cfg.ae.epochs = 15;
        cfg
    }
}

/// Metrics from a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainSummary {
    pub rnn_report: TrainReport,
    /// Per-timestep state-prediction accuracy on the training set (paper
    /// Table 5 reports ≈0.995 on held-out data).
    pub rnn_accuracy: f32,
    /// Mean L1 loss per autoencoder epoch.
    pub ae_losses: Vec<f32>,
    /// Number of stacked context profiles the autoencoder was trained on.
    pub profiles: usize,
}

/// A trained CLAP detector: the `{M_GRU, M_AE}` pair of the paper plus the
/// benign range model for amplification features. Serializable, so the
/// "persist / load" arrows of Figures 2–3 are `serde_json` round trips.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Clap {
    pub config: ClapConfig,
    pub ranges: RangeModel,
    pub rnn: GruClassifier,
    pub ae: Autoencoder,
}

impl Clap {
    /// Trains the full pipeline on benign connections only (unsupervised
    /// with respect to attacks).
    pub fn train(benign: &[Connection], cfg: &ClapConfig) -> (Clap, TrainSummary) {
        assert!(!benign.is_empty(), "training requires benign traffic");

        // Stage (a) inputs: features and reference-stack labels.
        let fvs_per_conn: Vec<Vec<FeatureVector>> =
            benign.par_iter().map(extract_connection).collect();
        let ranges = RangeModel::fit(fvs_per_conn.iter().flatten());

        // Sequences borrow the feature rows — no per-packet clones.
        let sequences: Vec<(Vec<&[f32]>, Vec<usize>)> = benign
            .par_iter()
            .zip(&fvs_per_conn)
            .map(|(conn, fvs)| {
                let xs: Vec<&[f32]> = fvs.iter().map(|fv| fv.base.as_slice()).collect();
                let ys: Vec<usize> = label_connection(conn)
                    .iter()
                    .map(|l| l.class_index())
                    .collect();
                (xs, ys)
            })
            .collect();

        let mut rnn = GruClassifier::new(&cfg.rnn);
        let rnn_report = rnn.train(&sequences, &cfg.rnn);
        let rnn_accuracy = rnn.accuracy(&sequences);

        // Stages (b)+(c): benign context profiles -> autoencoder.
        let builder = ProfileBuilder::new(cfg.stack);
        let per_conn: Vec<Matrix> = fvs_per_conn
            .par_iter()
            .map(|fvs| builder.stacked_profiles(&ranges, &rnn, fvs))
            .collect();
        let total_rows: usize = per_conn.iter().map(|m| m.rows).sum();
        let mut data = Matrix::zeros(total_rows, builder.stacked_len());
        let mut r = 0;
        for m in &per_conn {
            data.data[r * data.cols..(r + m.rows) * data.cols].copy_from_slice(&m.data);
            r += m.rows;
        }

        let mut ae_cfg = cfg.ae.clone();
        ae_cfg.layer_sizes[0] = builder.stacked_len();
        *ae_cfg.layer_sizes.last_mut().unwrap() = builder.stacked_len();
        let mut ae = Autoencoder::new(&ae_cfg.layer_sizes, ae_cfg.seed);
        let ae_losses = ae.train(&data, &ae_cfg);

        let clap = Clap {
            config: cfg.clone(),
            ranges,
            rnn,
            ae,
        };
        let summary = TrainSummary {
            rnn_report,
            rnn_accuracy,
            ae_losses,
            profiles: total_rows,
        };
        (clap, summary)
    }

    /// Builds a reusable scoring session holding the packed GRU and
    /// autoencoder weights (packed here, once — see
    /// [`AeEngine::from_model`]), every scratch buffer the scoring core
    /// needs and the one flow's worth of resident state a connection is
    /// scored on. One scorer per worker thread; scoring through it
    /// allocates nothing but the returned results.
    ///
    /// Scores on the f32 engine ([`QuantMode::Off`]);
    /// [`scorer_with`](Self::scorer_with) takes the precision.
    pub fn scorer(&self) -> ClapScorer<'_> {
        self.scorer_with(QuantMode::Off)
    }

    /// [`scorer`](Self::scorer) with an explicit engine precision:
    /// [`QuantMode::Off`] scores on the f32 engine, [`QuantMode::Int8`]
    /// quantizes the autoencoder and packed-GRU weights once per scorer
    /// and runs the int8 GEMV kernels.
    pub fn scorer_with(&self, mode: QuantMode) -> ClapScorer<'_> {
        self.scorer_from_engines(
            GruEngine::from_packed(self.rnn.packed(), mode),
            AeEngine::from_model(&self.ae, mode),
            ResidentMode::F32,
        )
    }

    /// Assembles a scorer around already-built engines, so batch entry
    /// points can pay weight packing (and quantization) once and hand each
    /// worker a clone (a memcpy) instead of re-deriving the engines per
    /// chunk. Every public constructor keeps the scored connection's
    /// state at f32 (`resident`); tests also build int8-resident ones.
    pub(crate) fn scorer_from_engines<'a>(
        &'a self,
        gru: GruEngine,
        ae: AeEngine<'a>,
        resident: ResidentMode,
    ) -> ClapScorer<'a> {
        let mut resident = ResidentArena::new(resident, gru.hidden_size(), self.config.stack, 1);
        resident.push_slot();
        ClapScorer {
            scorer: Scorer::new(self, gru, ae, resident.pad_key_len()),
            resident,
        }
    }

    /// Stage (d): scores one unseen connection. Higher = more likely to
    /// contain adversarial packets.
    ///
    /// Convenience wrapper that builds a fresh [`ClapScorer`], which packs
    /// the model's weights (≈700 kB at the paper's sizes) before it scores
    /// anything. Loops should create one scorer via [`Clap::scorer`] and
    /// reuse it.
    pub fn score_connection(&self, conn: &Connection) -> ScoredConnection {
        self.scorer().score_connection(conn)
    }

    /// Scores a batch of connections, sharding them across rayon workers,
    /// each of which scores its shard through one [`ClapScorer`]. Scores
    /// on the f32 engine ([`QuantMode::Off`]).
    pub fn score_connections(&self, conns: &[Connection]) -> Vec<ScoredConnection> {
        self.score_connections_with(conns, QuantMode::Off)
    }

    /// [`score_connections`](Self::score_connections) at an explicit
    /// engine precision.
    pub fn score_connections_with(
        &self,
        conns: &[Connection],
        mode: QuantMode,
    ) -> Vec<ScoredConnection> {
        if conns.is_empty() {
            return Vec::new();
        }
        // ~4 shards per worker keeps the pool busy despite uneven
        // connection lengths. Sized from the executing rayon pool, so a
        // pinned single-thread pool gets 4 large shards, not one per core.
        let workers = rayon::current_num_threads().max(1);
        let shard = conns.len().div_ceil(workers * 4).max(1);
        // Pack (at Int8, quantize) the engines once; per-chunk scorers
        // clone the finished panels rather than re-deriving them.
        let gru = GruEngine::from_packed(self.rnn.packed(), mode);
        let ae = AeEngine::from_model(&self.ae, mode);
        let nested: Vec<Vec<ScoredConnection>> = conns
            .par_chunks(shard)
            .map(|chunk| {
                let mut scorer =
                    self.scorer_from_engines(gru.clone(), ae.clone(), ResidentMode::F32);
                chunk.iter().map(|c| scorer.score_connection(c)).collect()
            })
            .collect();
        nested.into_iter().flatten().collect()
    }

    /// Boolean verdict against a deployer-chosen threshold.
    pub fn detect(&self, conn: &Connection, threshold: f32) -> bool {
        self.score_connection(conn).score > threshold
    }

    /// Suggests a detection threshold as a quantile of benign scores
    /// (e.g. `0.95` → ≈5% false-positive budget), scored on the f32
    /// engine ([`QuantMode::Off`]); thresholds should be calibrated at
    /// the precision that will score production traffic
    /// ([`threshold_from_benign_with`](Self::threshold_from_benign_with)).
    pub fn threshold_from_benign(&self, benign: &[Connection], quantile: f64) -> f32 {
        self.threshold_from_benign_with(benign, quantile, QuantMode::Off)
    }

    /// [`threshold_from_benign`](Self::threshold_from_benign) at an
    /// explicit engine precision — the single source of truth for the
    /// quantile recipe (the quantization parity harnesses pin against
    /// exactly this function).
    pub fn threshold_from_benign_with(
        &self,
        benign: &[Connection],
        quantile: f64,
        mode: QuantMode,
    ) -> f32 {
        let mut scores: Vec<f32> = self
            .score_connections_with(benign, mode)
            .iter()
            .map(|s| s.score)
            .collect();
        // total_cmp: a NaN score must not scramble the quantile order.
        scores.sort_by(f32::total_cmp);
        if scores.is_empty() {
            return 0.0;
        }
        let idx = ((scores.len() as f64 - 1.0) * quantile.clamp(0.0, 1.0)).round() as usize;
        scores[idx]
    }

    /// Per-label `(correct, total)` state-prediction counts on a labelled
    /// corpus — the data behind the paper's Table 5, predicted by the
    /// reference forward pass the classifier was trained through.
    pub fn rnn_confusion(&self, conns: &[Connection]) -> Vec<(usize, usize)> {
        let mut counts = vec![(0usize, 0usize); NUM_CLASSES];
        for conn in conns {
            let fvs = extract_connection(conn);
            let xs: Vec<&[f32]> = fvs.iter().map(|fv| fv.base.as_slice()).collect();
            for (label, pred) in label_connection(conn).iter().zip(self.rnn.predict(&xs)) {
                let idx = label.class_index();
                counts[idx].1 += 1;
                counts[idx].0 += usize::from(pred == idx);
            }
        }
        counts
    }

    /// Serializes the whole detector to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores a detector from [`Clap::to_json`] output. A parameter the
    /// engines cannot score is an error here rather than a panic or a
    /// poisoned score later: a matrix whose data does not fill its shape, a
    /// part whose shape disagrees with the parts it feeds or is fed by (the
    /// GRU's gates and state head, the autoencoder's chain of layers from a
    /// window back to one, the range model's raw features), or a weight,
    /// bias or range that is not finite (JSON `null` reads as NaN, `1e39`
    /// as +inf; the panels' zero-skip needs finite weights).
    pub fn from_json(json: &str) -> serde_json::Result<Clap> {
        let clap: Clap = serde_json::from_str(json)?;
        clap.check_parameters().map_err(serde_json::Error::custom)?;
        Ok(clap)
    }

    /// Names the first matrix whose data does not fill its shape, or else
    /// the first part of the wrong shape, or else the first parameter that
    /// is not finite.
    fn check_parameters(&self) -> Result<(), String> {
        let (rnn, [mins, maxs]) = (&self.rnn, self.ranges.bounds());
        let mut matrices = vec![
            ("rnn.cell.w".to_string(), &rnn.cell.w),
            ("rnn.cell.u".to_string(), &rnn.cell.u),
            ("rnn.wo".to_string(), &rnn.wo),
        ];
        let mut vectors = vec![
            ("ranges.mins".to_string(), mins),
            ("ranges.maxs".to_string(), maxs),
            ("rnn.cell.b".to_string(), &rnn.cell.b[..]),
            ("rnn.bo".to_string(), &rnn.bo[..]),
        ];
        for (i, layer) in self.ae.layers().iter().enumerate() {
            matrices.push((format!("ae.layers[{i}].w"), &layer.w));
            vectors.push((format!("ae.layers[{i}].b"), &layer.b[..]));
        }
        for (name, m) in matrices {
            if m.rows.checked_mul(m.cols) != Some(m.data.len()) {
                return Err(format!(
                    "{name} holds {} values for its {}x{} shape",
                    m.data.len(),
                    m.rows,
                    m.cols
                ));
            }
            vectors.push((name, &m.data[..]));
        }
        self.check_shapes()?;
        for (name, v) in vectors {
            if let Some(i) = v.iter().position(|x| !x.is_finite()) {
                return Err(format!("{name}[{i}] is {}, not a finite number", v[i]));
            }
        }
        Ok(())
    }

    /// Names the first part whose shape disagrees with what the pipeline
    /// feeds it or reads from it:
    ///
    /// * the GRU's hidden size `H` is half of [`GATE_FEATURES`] (a profile
    ///   holds its `z` and `r`): `rnn.cell.w` is `3H × NUM_BASE`, `u` is
    ///   `3H × H` and `b` is `3H` long;
    /// * the state head `rnn.wo` is `NUM_CLASSES × H` and `rnn.bo` is
    ///   `NUM_CLASSES` long;
    /// * `config.stack ≥ 1`, and the autoencoder maps a window of
    ///   `stack · PROFILE_LEN` values back to as many: each layer's input
    ///   is the previous layer's output, and its bias is as long as its
    ///   output;
    /// * `ranges.mins` and `ranges.maxs` bound the `NUM_RAW` raw features.
    fn check_shapes(&self) -> Result<(), String> {
        const HIDDEN: usize = GATE_FEATURES / 2;
        let shape = |name: &str, m: &Matrix, rows: usize, cols: usize| {
            if (m.rows, m.cols) == (rows, cols) {
                Ok(())
            } else {
                Err(format!(
                    "{name} is {}x{}, not {rows}x{cols}",
                    m.rows, m.cols
                ))
            }
        };
        let len = |name: &str, v: &[f32], want: usize| {
            if v.len() == want {
                Ok(())
            } else {
                Err(format!("{name} holds {} values, not {want}", v.len()))
            }
        };
        let (cell, [mins, maxs]) = (&self.rnn.cell, self.ranges.bounds());
        shape("rnn.cell.w", &cell.w, 3 * HIDDEN, NUM_BASE)?;
        shape("rnn.cell.u", &cell.u, 3 * HIDDEN, HIDDEN)?;
        len("rnn.cell.b", &cell.b, 3 * HIDDEN)?;
        shape("rnn.wo", &self.rnn.wo, NUM_CLASSES, HIDDEN)?;
        len("rnn.bo", &self.rnn.bo, NUM_CLASSES)?;
        len("ranges.mins", mins, NUM_RAW)?;
        len("ranges.maxs", maxs, NUM_RAW)?;
        let stack = self.config.stack;
        let Some(window) = stack.checked_mul(PROFILE_LEN).filter(|&w| w > 0) else {
            return Err(format!(
                "config.stack is {stack}, not a window's count of profiles"
            ));
        };
        let layers = self.ae.layers();
        if layers.is_empty() {
            return Err("ae has no layers".into());
        }
        let mut width = window;
        for (i, layer) in layers.iter().enumerate() {
            shape(&format!("ae.layers[{i}].w"), &layer.w, layer.w.rows, width)?;
            len(&format!("ae.layers[{i}].b"), &layer.b, layer.w.rows)?;
            width = layer.w.rows;
        }
        if width != window {
            return Err(format!(
                "ae.layers[{}].w gives {width} outputs, not the window's {window}",
                layers.len() - 1
            ));
        }
        Ok(())
    }
}

/// A scoring session for whole connections: the scoring core (the
/// gate-packed GRU and autoencoder engines, f32 or int8 — see
/// [`Clap::scorer_with`] — and their scratch) plus one flow's worth of
/// resident state. Create one per worker via [`Clap::scorer`] and feed it
/// connections.
pub struct ClapScorer<'a> {
    scorer: Scorer<'a>,
    /// One slot, f32 outside tests: the hidden vector and profile ring of
    /// the connection being scored.
    resident: ResidentArena,
}

impl ClapScorer<'_> {
    /// The engine precision this scorer runs at.
    pub fn quant_mode(&self) -> QuantMode {
        self.scorer.gru.mode()
    }

    /// Scores one connection: its packets, in capture order, through the
    /// per-packet core a [`StreamScorer`](crate::StreamScorer) runs — so
    /// the two agree bitwise — then the padded window if it was shorter
    /// than the stack. Allocates the returned `window_errors` and nothing
    /// else.
    pub fn score_connection(&mut self, conn: &Connection) -> ScoredConnection {
        let stack = self.scorer.builder.stack;
        self.resident.clear_slot(0);
        let mut extractor = FeatureExtractor::new();
        let mut packets = 0u32;
        let windows = match conn.len() {
            0 => 0,
            n => n.max(stack) + 1 - stack,
        };
        let mut window_errors = Vec::with_capacity(windows);
        for (i, p) in conn.packets.iter().enumerate() {
            let flow = Flow {
                anchors: &mut extractor.anchors,
                present: &mut extractor.present,
                packets: &mut packets,
                resident: &mut self.resident,
                slot: 0,
            };
            let (dir, sums) = (conn.direction(i), p.checksums());
            window_errors.extend(self.scorer.advance(flow, p, dir, sums, &mut None));
        }
        window_errors.extend(self.scorer.pad_error(&self.resident, 0, conn.len()));
        self.scorer.verdict(window_errors, conn.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::score_errors;

    fn tiny_cfg() -> ClapConfig {
        let mut cfg = ClapConfig::ci();
        cfg.ae.epochs = 8;
        cfg
    }

    #[test]
    fn train_and_score_smoke() {
        let benign = traffic_gen::dataset(21, 30);
        let (clap, summary) = Clap::train(&benign, &tiny_cfg());
        assert!(
            summary.rnn_accuracy > 0.5,
            "accuracy {}",
            summary.rnn_accuracy
        );
        assert!(summary.profiles > 100);
        assert!(summary.ae_losses.last().unwrap() < &summary.ae_losses[0]);
        let s = clap.score_connection(&benign[0]);
        assert!(s.score.is_finite() && s.score >= 0.0);
        assert_eq!(s.window_errors.len(), benign[0].len().max(3) - 2);
        assert!(s.peak_packet < benign[0].len());
    }

    #[test]
    fn corrupted_connection_scores_higher_than_benign() {
        let benign = traffic_gen::dataset(22, 40);
        let (clap, _) = Clap::train(&benign, &tiny_cfg());
        let held_out = traffic_gen::dataset(522, 12);
        let benign_mean: f32 = clap
            .score_connections(&held_out)
            .iter()
            .map(|s| s.score)
            .sum::<f32>()
            / held_out.len() as f32;

        // Hand-rolled Bad-Checksum-RST (the paper's motivating example).
        let mut attacked = held_out.clone();
        for conn in &mut attacked {
            if let Some(idx) = conn.first_index_after_handshake() {
                let mut rst = conn.packets[idx.min(conn.len() - 1)].clone();
                rst.tcp_mut().flags = net_packet::TcpFlags::RST;
                rst.payload.clear();
                rst.fill_checksums();
                rst.tcp_mut().checksum ^= 0x0bad;
                conn.packets.insert(idx.min(conn.len() - 1), rst);
            }
        }
        let adv_mean: f32 = clap
            .score_connections(&attacked)
            .iter()
            .map(|s| s.score)
            .sum::<f32>()
            / attacked.len() as f32;
        assert!(
            adv_mean > benign_mean,
            "adversarial mean {adv_mean} should exceed benign mean {benign_mean}"
        );
    }

    #[test]
    fn threshold_quantile_behaviour() {
        let benign = traffic_gen::dataset(23, 25);
        let (clap, _) = Clap::train(&benign, &tiny_cfg());
        let t50 = clap.threshold_from_benign(&benign, 0.5);
        let t95 = clap.threshold_from_benign(&benign, 0.95);
        assert!(t95 >= t50);
        let flagged = benign.iter().filter(|c| clap.detect(c, t95)).count();
        assert!(flagged <= benign.len() / 10);
    }

    #[test]
    fn json_round_trip_preserves_scores() {
        let benign = traffic_gen::dataset(24, 15);
        let (clap, _) = Clap::train(&benign, &tiny_cfg());
        let json = clap.to_json().unwrap();
        let back = Clap::from_json(&json).unwrap();
        let a = clap.score_connection(&benign[3]);
        let b = back.score_connection(&benign[3]);
        assert_eq!(a.score, b.score);
        assert_eq!(a.peak_packet, b.peak_packet);
    }

    /// A small trained detector's JSON, which loads.
    fn model_json() -> String {
        let (clap, _) = Clap::train(&traffic_gen::dataset(24, 15), &tiny_cfg());
        let json = clap.to_json().unwrap();
        assert!(Clap::from_json(&json).is_ok());
        json
    }

    /// The index just past the first `key` in `json` at or after `from`.
    fn after(json: &str, from: usize, key: &str) -> usize {
        from + json[from..].find(key).unwrap() + key.len()
    }

    /// Where the data of the first autoencoder weight matrix starts.
    fn first_ae_weight(json: &str) -> usize {
        after(json, after(json, 0, r#""layers":["#), r#""data":["#)
    }

    /// `json` with the value starting at `at` replaced by `with`, loaded:
    /// the error's message.
    fn load_with(json: &str, at: usize, with: &str) -> String {
        let mut bad = json.to_string();
        let end = at + json[at..].find([',', ']']).unwrap();
        bad.replace_range(at..end, with);
        Clap::from_json(&bad).expect_err(with).to_string()
    }

    /// JSON `null` reads as NaN: in a weight or a range bound it loads as
    /// an error naming the parameter, not as a detector that scores NaN.
    #[test]
    fn from_json_rejects_a_null_parameter() {
        let json = model_json();
        let err = load_with(&json, first_ae_weight(&json), "null");
        assert!(err.starts_with("ae.layers[0].w[0] is NaN"), "{err}");
        let err = load_with(&json, after(&json, 0, r#""mins":["#), "null");
        assert!(err.starts_with("ranges.mins[0] is NaN"), "{err}");
    }

    /// `1e39` overflows f32 to +inf: in a bias it loads as an error.
    #[test]
    fn from_json_rejects_an_overflowing_parameter() {
        let json = model_json();
        // The GRU is written before the autoencoder: its bias is the
        // first `b`.
        let err = load_with(&json, after(&json, 0, r#""b":["#), "1e39");
        assert!(err.starts_with("rnn.cell.b[0] is inf"), "{err}");
    }

    /// `json` with the last value of the array whose values start at `at`
    /// dropped, loaded: the error's message.
    fn load_one_short(json: &str, at: usize) -> String {
        let end = at + json[at..].find(']').unwrap();
        let last = at + json[at..end].rfind(',').unwrap();
        let mut short = json.to_string();
        short.replace_range(last..end, "");
        Clap::from_json(&short)
            .expect_err("one value short")
            .to_string()
    }

    /// A weight matrix one value short of its shape loads as an error, not
    /// as a detector whose scorer panics when it packs the weights.
    #[test]
    fn from_json_rejects_a_truncated_matrix() {
        let json = model_json();
        let err = load_one_short(&json, first_ae_weight(&json));
        assert!(err.starts_with("ae.layers[0].w holds "), "{err}");
    }

    /// A GRU bias one value short of `3H` loads as an error, not as a
    /// detector whose last gate silently loses its bias.
    #[test]
    fn from_json_rejects_a_short_gru_bias() {
        let json = model_json();
        let err = load_one_short(&json, after(&json, 0, r#""b":["#));
        assert!(
            err.starts_with("rnn.cell.b holds 95 values, not 96"),
            "{err}"
        );
    }

    /// A range bound one value short of the raw features loads as an
    /// error, not as a detector that panics on its first packet.
    #[test]
    fn from_json_rejects_a_short_range() {
        let json = model_json();
        let err = load_one_short(&json, after(&json, 0, r#""mins":["#));
        assert!(
            err.starts_with("ranges.mins holds 17 values, not 18"),
            "{err}"
        );
    }

    /// An autoencoder bias one value short of its layer's outputs loads as
    /// an error, not as a detector that panics in its bias epilogue.
    #[test]
    fn from_json_rejects_a_short_autoencoder_bias() {
        let json = model_json();
        let layers = after(&json, 0, r#""layers":["#);
        let err = load_one_short(&json, after(&json, layers, r#""b":["#));
        assert!(err.starts_with("ae.layers[0].b holds "), "{err}");
    }

    /// A stack of zero profiles loads as an error that names the stack.
    #[test]
    fn from_json_rejects_a_zero_stack() {
        let json = model_json();
        assert_eq!(json.matches(r#""stack":3"#).count(), 1);
        let err = Clap::from_json(&json.replace(r#""stack":3"#, r#""stack":0"#))
            .expect_err("stack 0")
            .to_string();
        assert!(err.starts_with("config.stack is 0"), "{err}");
    }

    /// The headline equivalence guarantee: the scoring engine (packed GRU
    /// and autoencoder panels, one packet at a time through the scoring
    /// core) scores every connection identically (≤1e-6) to the forward
    /// pass the model was trained through — `GruCell::forward` and
    /// `Dense::forward_into` on the row-major weights, whole connection at
    /// a time — via both the single and the sharded batch entry points. On
    /// the f32 engine: the training pass is f32 by construction (int8-vs-f32
    /// drift is bounded separately by the quantization parity tests).
    #[test]
    fn engine_matches_the_training_forward_pass() {
        let benign = traffic_gen::dataset(26, 25);
        let (clap, _) = Clap::train(&benign, &tiny_cfg());
        let corpus = traffic_gen::dataset(777, 30);

        let builder = ProfileBuilder::new(clap.config.stack);
        let batched = clap.score_connections_with(&corpus, QuantMode::Off);
        let mut scorer = clap.scorer_with(QuantMode::Off);
        assert_eq!(corpus.len(), batched.len());
        for (conn, b) in corpus.iter().zip(&batched) {
            let stacked =
                builder.stacked_profiles(&clap.ranges, &clap.rnn, &extract_connection(conn));
            let window_errors = clap.ae.reconstruction_errors(&stacked);
            let (peak_window, score) = score_errors(&window_errors, clap.config.score_window);
            let single = scorer.score_connection(conn);
            for engine in [&single, b] {
                assert!(
                    (score - engine.score).abs() < 1e-6,
                    "score drift: {} vs {}",
                    score,
                    engine.score
                );
                assert_eq!(peak_window, engine.peak_window);
                assert_eq!(
                    builder.window_center(peak_window, conn.len()),
                    engine.peak_packet
                );
                assert_eq!(window_errors.len(), engine.window_errors.len());
                for (x, y) in window_errors.iter().zip(&engine.window_errors) {
                    assert!((x - y).abs() < 1e-6, "window error drift: {x} vs {y}");
                }
            }
        }
    }

    /// A reused scorer carries one flow's state — hidden vector, profile
    /// ring — from connection to connection, and none of it may reach the
    /// next score: long → shorter than the stack (the pad must read only
    /// rows the short one wrote) → empty → long again, then connections of
    /// wildly different lengths, are each bitwise what a fresh scorer
    /// gives, at both precisions.
    #[test]
    fn scorer_reuse_across_connection_sizes() {
        let benign = traffic_gen::dataset(27, 20);
        let (clap, _) = Clap::train(&benign, &tiny_cfg());
        let corpus = traffic_gen::dataset(888, 12);
        let long = &corpus[0];
        assert!(long.len() > clap.config.stack);
        let truncated = |n: usize| {
            let mut conn = Connection::new(long.key);
            conn.packets = long.packets[..n].to_vec();
            conn
        };
        let mut sequence = vec![long.clone()];
        sequence.extend((1..clap.config.stack).map(truncated));
        sequence.extend([truncated(0), long.clone()]);
        sequence.extend(corpus.iter().cloned());
        let bits = |errors: &[f32]| errors.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for mode in [QuantMode::Off, QuantMode::Int8] {
            let mut reused = clap.scorer_with(mode);
            for _ in 0..2 {
                for conn in &sequence {
                    let a = reused.score_connection(conn);
                    let b = clap.scorer_with(mode).score_connection(conn);
                    assert_eq!(
                        bits(&a.window_errors),
                        bits(&b.window_errors),
                        "{mode:?}: scorer reuse changed the window errors of a {}-packet connection",
                        conn.len()
                    );
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                    assert_eq!(
                        (a.peak_window, a.peak_packet),
                        (b.peak_window, b.peak_packet)
                    );
                    if conn.is_empty() {
                        assert!(a.window_errors.is_empty());
                        assert_eq!((a.peak_window, a.score), (0, 0.0));
                    } else {
                        assert_eq!(
                            a.window_errors.len(),
                            conn.len().max(clap.config.stack) + 1 - clap.config.stack
                        );
                    }
                }
            }
        }
    }

    /// The int8 engine must track the f32 engine closely (quantization
    /// noise, not a different detector), be deterministic, and agree
    /// between its single-connection and batched entry points exactly.
    #[test]
    fn int8_scorer_tracks_f32_and_is_deterministic() {
        let benign = traffic_gen::dataset(29, 25);
        let (clap, _) = Clap::train(&benign, &tiny_cfg());
        let corpus = traffic_gen::dataset(779, 20);

        let f32_scores = clap.score_connections_with(&corpus, QuantMode::Off);
        let int8_a = clap.score_connections_with(&corpus, QuantMode::Int8);
        let int8_b = clap.score_connections_with(&corpus, QuantMode::Int8);
        let mut single = clap.scorer_with(QuantMode::Int8);
        assert_eq!(single.quant_mode(), QuantMode::Int8);
        for (conn, ((f, a), b)) in corpus
            .iter()
            .zip(f32_scores.iter().zip(&int8_a).zip(&int8_b))
        {
            assert_eq!(a.score, b.score, "int8 scoring must be deterministic");
            let s = single.score_connection(conn);
            assert_eq!(s.score, a.score, "single vs batched int8 entry points");
            let rel = (a.score - f.score).abs() / f.score.abs().max(1e-3);
            assert!(
                rel < 0.05,
                "int8 score drifted {:.2}% from f32 ({} vs {})",
                rel * 100.0,
                a.score,
                f.score
            );
        }
    }

    #[test]
    fn confusion_counts_sum_to_packets() {
        let benign = traffic_gen::dataset(25, 10);
        let (clap, _) = Clap::train(&benign, &tiny_cfg());
        let counts = clap.rnn_confusion(&benign);
        let total: usize = counts.iter().map(|&(_, t)| t).sum();
        let packets: usize = benign.iter().map(Connection::len).sum();
        assert_eq!(total, packets);
    }
}
