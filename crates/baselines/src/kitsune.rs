//! Baseline #2 — Kitsune-lite, a reimplementation of the NDSS '18
//! autoencoder-ensemble NIDS the paper compares against.
//!
//! Pipeline (matching the published architecture, sized per Table 6):
//!
//! 1. **Feature extraction**: 100 damped incremental statistics per packet
//!    — per-λ (5 decay rates) bandwidth stats of the source-IP and
//!    destination-IP streams (3 each) plus 7-dimensional two-stream
//!    channel and socket statistics;
//! 2. **Feature mapper**: agglomerative correlation clustering of the 100
//!    features into 16 groups (ensemble size from Table 6);
//! 3. **Ensemble**: one small autoencoder per group (β = 0.75 bottleneck),
//!    trained for a single epoch (Table 6), plus an output autoencoder
//!    over the ensemble's reconstruction errors.
//!
//! Kitsune sees traffic volume/timing, not header semantics, so DPI
//! evasion packets — which perturb header *fields* — barely move its
//! features. The paper reports AUC ≈ 0.5; this reimplementation shows the
//! same blindness.

use crate::incstat::{IncStat, IncStat2D};
use clap_core::score::{score_errors, ScoredConnection};
use net_packet::{Connection, Direction};
use neural::{AeWorkspace, Autoencoder, AutoencoderConfig, Matrix};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Kitsune's decay rates (1/s).
pub const LAMBDAS: [f64; 5] = [5.0, 3.0, 1.0, 0.1, 0.01];

/// Total feature width: 2 × (5λ × 3) one-stream + 2 × (5λ × 7) two-stream.
pub const KITSUNE_FEATURES: usize = 2 * 15 + 2 * 35;

/// Configuration (Table 6 column "Ensembled Autoencoders in Baseline #2").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KitsuneConfig {
    /// Number of autoencoders in the ensemble.
    pub ensemble: usize,
    /// Training epochs (the paper trains Kitsune for exactly 1).
    pub epochs: usize,
    pub learning_rate: f32,
    /// Profiles averaged around the error peak for the connection score.
    pub score_window: usize,
    pub seed: u64,
}

impl Default for KitsuneConfig {
    fn default() -> Self {
        KitsuneConfig {
            ensemble: 16,
            epochs: 1,
            learning_rate: 1e-3,
            score_window: 5,
            seed: 0xb2,
        }
    }
}

/// Per-connection incremental-statistics state.
struct StreamState {
    src: Vec<IncStat>,
    dst: Vec<IncStat>,
    channel: Vec<IncStat2D>,
    socket: Vec<IncStat2D>,
}

impl StreamState {
    fn new() -> Self {
        StreamState {
            src: LAMBDAS.iter().map(|&l| IncStat::new(l)).collect(),
            dst: LAMBDAS.iter().map(|&l| IncStat::new(l)).collect(),
            channel: LAMBDAS.iter().map(|&l| IncStat2D::new(l)).collect(),
            socket: LAMBDAS.iter().map(|&l| IncStat2D::new(l)).collect(),
        }
    }

    /// Clears all statistics so a scorer can reuse one `StreamState`
    /// across connections without reallocating the 20 stat objects.
    fn reset(&mut self) {
        self.src.iter_mut().for_each(IncStat::reset);
        self.dst.iter_mut().for_each(IncStat::reset);
        self.channel.iter_mut().for_each(IncStat2D::reset);
        self.socket.iter_mut().for_each(IncStat2D::reset);
    }

    fn update_and_extract(&mut self, t: f64, size: f64, dir: Direction) -> Vec<f32> {
        let mut out = vec![0.0; KITSUNE_FEATURES];
        self.update_and_extract_into(t, size, dir, &mut out);
        out
    }

    /// Allocation-free extraction: updates the statistics and writes the
    /// 100-dim feature vector into a caller-owned slice (e.g. a row of a
    /// reused feature matrix).
    fn update_and_extract_into(&mut self, t: f64, size: f64, dir: Direction, out: &mut [f32]) {
        debug_assert_eq!(out.len(), KITSUNE_FEATURES);
        let from_client = dir == Direction::ClientToServer;
        for s in &mut self.src {
            if from_client {
                s.insert(t, size);
            }
        }
        for s in &mut self.dst {
            if !from_client {
                s.insert(t, size);
            }
        }
        for s in &mut self.channel {
            s.insert(t, size, !from_client);
        }
        for s in &mut self.socket {
            // Socket stream: sizes weighted by direction sign, a cheap
            // proxy for per-socket jitter statistics.
            s.insert(t, if from_client { size } else { -size }, !from_client);
        }
        let mut i = 0;
        for s in &self.src {
            for v in s.stats() {
                out[i] = v as f32;
                i += 1;
            }
        }
        for s in &self.dst {
            for v in s.stats() {
                out[i] = v as f32;
                i += 1;
            }
        }
        for s in &self.channel {
            for v in s.stats7() {
                out[i] = v as f32;
                i += 1;
            }
        }
        for s in &self.socket {
            for v in s.stats7() {
                out[i] = v as f32;
                i += 1;
            }
        }
        debug_assert_eq!(i, KITSUNE_FEATURES);
    }
}

/// Extracts the 100-dim Kitsune feature vector for every packet.
pub fn extract_features(conn: &Connection) -> Vec<Vec<f32>> {
    let mut state = StreamState::new();
    conn.packets
        .iter()
        .enumerate()
        .map(|(i, p)| state.update_and_extract(p.timestamp, p.wire_len() as f64, conn.direction(i)))
        .collect()
}

/// Min-max normalizer fitted on training data.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MinMax {
    mins: Vec<f32>,
    maxs: Vec<f32>,
}

impl MinMax {
    fn fit(rows: &[Vec<f32>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for r in rows {
            for (i, &v) in r.iter().enumerate() {
                mins[i] = mins[i].min(v);
                maxs[i] = maxs[i].max(v);
            }
        }
        for i in 0..dim {
            if !mins[i].is_finite() || maxs[i] - mins[i] < 1e-9 {
                mins[i] = 0.0;
                maxs[i] = 1.0;
            }
        }
        MinMax { mins, maxs }
    }

    fn apply(&self, row: &[f32]) -> Vec<f32> {
        let mut out = row.to_vec();
        self.apply_in_place(&mut out);
        out
    }

    /// In-place normalization (same formula as [`apply`](Self::apply)),
    /// for reused feature-matrix rows.
    fn apply_in_place(&self, row: &mut [f32]) {
        for (i, v) in row.iter_mut().enumerate() {
            *v = ((*v - self.mins[i]) / (self.maxs[i] - self.mins[i])).clamp(-1.0, 2.0);
        }
    }
}

/// The trained Kitsune-lite model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KitsuneLite {
    norm: MinMax,
    /// Feature indices per ensemble member.
    clusters: Vec<Vec<usize>>,
    ensemble: Vec<Autoencoder>,
    output: Autoencoder,
    score_window: usize,
}

/// Greedy correlation-based agglomerative clustering into exactly `k`
/// groups (Kitsune's feature mapper, simplified: pairs are merged in
/// descending |correlation| order under a size cap, then smallest-first
/// until `k` remain).
fn cluster_features(rows: &[Vec<f32>], k: usize) -> Vec<Vec<usize>> {
    let dim = rows.first().map_or(0, Vec::len);
    let n = rows.len().max(1) as f64;
    // Column means/stds.
    let mut mean = vec![0.0f64; dim];
    for r in rows {
        for (i, &v) in r.iter().enumerate() {
            mean[i] += v as f64;
        }
    }
    mean.iter_mut().for_each(|m| *m /= n);
    let mut var = vec![0.0f64; dim];
    for r in rows {
        for (i, &v) in r.iter().enumerate() {
            var[i] += (v as f64 - mean[i]).powi(2);
        }
    }
    var.iter_mut().for_each(|v| *v /= n);

    // Pairwise |correlation|.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..dim {
        for j in (i + 1)..dim {
            let mut cov = 0.0f64;
            for r in rows {
                cov += (r[i] as f64 - mean[i]) * (r[j] as f64 - mean[j]);
            }
            cov /= n;
            let denom = (var[i] * var[j]).sqrt();
            let corr = if denom > 1e-12 {
                (cov / denom).abs()
            } else {
                0.0
            };
            pairs.push((i, j, corr));
        }
    }
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2));

    // Union-find with a size cap.
    let cap = dim.div_ceil(k).max(2);
    let mut parent: Vec<usize> = (0..dim).collect();
    let mut size = vec![1usize; dim];
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            parent[r] = parent[parent[r]];
            r = parent[r];
        }
        r
    }
    let mut clusters = dim;
    for &(i, j, _) in &pairs {
        if clusters <= k {
            break;
        }
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj && size[ri] + size[rj] <= cap {
            parent[rj] = ri;
            size[ri] += size[rj];
            clusters -= 1;
        }
    }
    // Force down to k by merging smallest clusters, ignoring the cap.
    while clusters > k {
        let mut roots: Vec<(usize, usize)> = (0..dim)
            .filter(|&i| find(&mut parent, i) == i)
            .map(|i| (size[i], i))
            .collect();
        roots.sort_unstable();
        let (_, a) = roots[0];
        let (_, b) = roots[1];
        parent[b] = a;
        size[a] += size[b];
        clusters -= 1;
    }

    let mut groups: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for i in 0..dim {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

impl KitsuneLite {
    /// Trains on benign traffic.
    pub fn train(benign: &[Connection], cfg: &KitsuneConfig) -> KitsuneLite {
        let rows: Vec<Vec<f32>> = benign.par_iter().flat_map_iter(extract_features).collect();
        let norm = MinMax::fit(&rows);
        let normed: Vec<Vec<f32>> = rows.iter().map(|r| norm.apply(r)).collect();
        let clusters = cluster_features(&normed, cfg.ensemble);

        // One tiny AE per cluster, β = 0.75 bottleneck ratio.
        let mut ensemble = Vec::with_capacity(clusters.len());
        for (ci, cluster) in clusters.iter().enumerate() {
            let d = cluster.len();
            let bottleneck =
                ((d as f32 * 0.75).round() as usize).clamp(1, d.saturating_sub(1).max(1));
            let sizes = vec![d, bottleneck, d];
            let mut data = Matrix::zeros(normed.len(), d);
            for (r, row) in normed.iter().enumerate() {
                for (c, &fi) in cluster.iter().enumerate() {
                    data.set(r, c, row[fi]);
                }
            }
            let ae_cfg = AutoencoderConfig {
                layer_sizes: sizes.clone(),
                epochs: cfg.epochs,
                batch_size: 32,
                learning_rate: cfg.learning_rate,
                seed: cfg.seed ^ ci as u64,
            };
            let mut ae = Autoencoder::new(&sizes, ae_cfg.seed);
            ae.train(&data, &ae_cfg);
            ensemble.push(ae);
        }

        // Output AE over the ensemble's per-packet error vector, batched
        // per ensemble member across the whole training set.
        let mut err_rows = Matrix::zeros(normed.len(), clusters.len());
        let mut sub = Matrix::default();
        for (ci, (cluster, ae)) in clusters.iter().zip(&ensemble).enumerate() {
            sub.resize(normed.len(), cluster.len());
            for (r, row) in normed.iter().enumerate() {
                let dst = sub.row_mut(r);
                for (c, &fi) in cluster.iter().enumerate() {
                    dst[c] = row[fi];
                }
            }
            for (r, err) in ae.reconstruction_errors(&sub).into_iter().enumerate() {
                err_rows.set(r, ci, err);
            }
        }
        let out_sizes = vec![
            clusters.len(),
            (clusters.len() * 3 / 4).max(1),
            clusters.len(),
        ];
        let out_cfg = AutoencoderConfig {
            layer_sizes: out_sizes.clone(),
            epochs: cfg.epochs,
            batch_size: 32,
            learning_rate: cfg.learning_rate,
            seed: cfg.seed ^ 0xff,
        };
        let mut output = Autoencoder::new(&out_sizes, out_cfg.seed);
        output.train(&err_rows, &out_cfg);

        KitsuneLite {
            norm,
            clusters,
            ensemble,
            output,
            score_window: cfg.score_window,
        }
    }

    /// Builds a reusable scoring session holding every scratch arena the
    /// hot path needs (mirroring `clap_core`'s `ClapScorer`): one scorer
    /// per worker thread; scoring through it is allocation-free in steady
    /// state aside from the returned results.
    pub fn scorer(&self) -> KitsuneScorer<'_> {
        KitsuneScorer {
            model: self,
            state: StreamState::new(),
            features: Matrix::default(),
            sub: Matrix::default(),
            err_rows: Matrix::default(),
            ae_ws: AeWorkspace::new(),
            member_errs: Vec::new(),
        }
    }

    /// Connection-level score via the same localize-and-estimate summary
    /// CLAP uses (fair comparison).
    pub fn score_connection(&self, conn: &Connection) -> ScoredConnection {
        self.scorer().score_connection(conn)
    }

    /// Scores many connections in parallel, sharding them across rayon
    /// workers with one [`KitsuneScorer`] arena set per shard (the same
    /// fused-engine treatment CLAP's batch path gets, so throughput
    /// comparisons are fused-vs-fused).
    pub fn score_connections(&self, conns: &[Connection]) -> Vec<ScoredConnection> {
        if conns.is_empty() {
            return Vec::new();
        }
        let workers = rayon::current_num_threads().max(1);
        let shard = conns.len().div_ceil(workers * 4).max(1);
        let nested: Vec<Vec<ScoredConnection>> = conns
            .par_chunks(shard)
            .map(|chunk| {
                let mut scorer = self.scorer();
                chunk.iter().map(|c| scorer.score_connection(c)).collect()
            })
            .collect();
        nested.into_iter().flatten().collect()
    }
}

/// A Kitsune-lite scoring session: the damped-statistics state plus the
/// feature/sub-cluster/error matrices and the autoencoder workspace, all
/// reused across connections. Steady state performs no heap allocation
/// beyond the returned results.
pub struct KitsuneScorer<'a> {
    model: &'a KitsuneLite,
    state: StreamState,
    /// `packets × 100` normalized feature rows of the current connection.
    features: Matrix,
    /// `packets × |cluster|` gather buffer for one ensemble member.
    sub: Matrix,
    /// `packets × ensemble` per-member reconstruction errors.
    err_rows: Matrix,
    ae_ws: AeWorkspace,
    member_errs: Vec<f32>,
}

impl KitsuneScorer<'_> {
    /// Per-packet anomaly scores, written into `out` (the buffer is
    /// cleared first, so it holds exactly this connection's scores) — the
    /// allocation-free core. Batched on the shared GEMM kernels: one
    /// forward pass per ensemble member over all packets of the
    /// connection, then one batched pass through the output autoencoder.
    pub fn packet_scores_into(&mut self, conn: &Connection, out: &mut Vec<f32>) {
        out.clear();
        let packets = conn.len();
        if packets == 0 {
            return;
        }
        self.state.reset();
        self.features.resize(packets, KITSUNE_FEATURES);
        for (i, p) in conn.packets.iter().enumerate() {
            let row = self.features.row_mut(i);
            self.state.update_and_extract_into(
                p.timestamp,
                p.wire_len() as f64,
                conn.direction(i),
                row,
            );
            self.model.norm.apply_in_place(row);
        }
        self.err_rows.resize(packets, self.model.clusters.len());
        for (ci, (cluster, ae)) in self
            .model
            .clusters
            .iter()
            .zip(&self.model.ensemble)
            .enumerate()
        {
            self.sub.resize(packets, cluster.len());
            for r in 0..packets {
                let src = self.features.row(r);
                let dst = self.sub.row_mut(r);
                for (c, &fi) in cluster.iter().enumerate() {
                    dst[c] = src[fi];
                }
            }
            self.member_errs.clear();
            ae.reconstruction_errors_into(&self.sub, &mut self.ae_ws, &mut self.member_errs);
            for (r, &err) in self.member_errs.iter().enumerate() {
                self.err_rows.set(r, ci, err);
            }
        }
        self.model
            .output
            .reconstruction_errors_into(&self.err_rows, &mut self.ae_ws, out);
    }

    /// Scores one connection through the reused arenas.
    pub fn score_connection(&mut self, conn: &Connection) -> ScoredConnection {
        let mut window_errors = Vec::new();
        self.packet_scores_into(conn, &mut window_errors);
        let (peak, score) = score_errors(&window_errors, self.model.score_window);
        ScoredConnection {
            peak_packet: peak.min(conn.len().saturating_sub(1)),
            peak_window: peak,
            window_errors,
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_width_is_100() {
        assert_eq!(KITSUNE_FEATURES, 100, "Table 6: total input size 100");
        let conns = traffic_gen::dataset(61, 2);
        for f in extract_features(&conns[0]) {
            assert_eq!(f.len(), KITSUNE_FEATURES);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn clustering_yields_requested_count() {
        let conns = traffic_gen::dataset(62, 5);
        let rows: Vec<Vec<f32>> = conns.iter().flat_map(extract_features).collect();
        let clusters = cluster_features(&rows, 16);
        assert_eq!(clusters.len(), 16);
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..KITSUNE_FEATURES).collect::<Vec<_>>());
    }

    #[test]
    fn trains_and_scores() {
        let benign = traffic_gen::dataset(63, 20);
        let model = KitsuneLite::train(&benign, &KitsuneConfig::default());
        let s = model.score_connection(&benign[0]);
        assert_eq!(s.window_errors.len(), benign[0].len());
        assert!(s.score.is_finite());
    }

    #[test]
    fn blind_to_header_only_evasion() {
        // The paper's core claim about Baseline #2: header-field evasion is
        // invisible to volume/timing features (AUC ≈ 0.5).
        let benign = traffic_gen::dataset(64, 30);
        let model = KitsuneLite::train(&benign, &KitsuneConfig::default());
        let held_out = traffic_gen::dataset(97, 12);
        let benign_scores: Vec<f32> = model
            .score_connections(&held_out)
            .iter()
            .map(|s| s.score)
            .collect();
        let strat = dpi_attacks::strategy_by_id("geneva-rst-bad-chksum").unwrap();
        let attacked = dpi_attacks::build_adversarial_set(strat, &held_out, 1);
        let adv_scores: Vec<f32> = attacked
            .iter()
            .map(|r| model.score_connection(&r.connection).score)
            .collect();
        let auc = clap_core::auc_roc(&benign_scores, &adv_scores);
        assert!(
            (0.2..0.85).contains(&auc),
            "Kitsune-lite should be near-blind to header evasion, AUC = {auc}"
        );
    }
}
