//! Context-profile construction — fusing intra- and inter-packet context.
//!
//! A packet's **context profile** (paper Eq. 2) is the concatenation of its
//! 51 packet features with the GRU's update- and reset-gate activations at
//! that timestep (32 + 32). Consecutive profiles are stacked into a sliding
//! window (length 3 in the paper, Table 6) so the autoencoder sees the
//! temporal neighbourhood explicitly — the chain-graph view of Figure 5.

use crate::features::{FeatureVector, RangeModel, NUM_PACKET};
use neural::{GruClassifier, Matrix};
use serde::{Deserialize, Serialize};

/// Gate features appended per packet: update + reset gates, `hidden` each.
pub const GATE_FEATURES: usize = 64;
/// Single-packet context-profile width (Table 7: #1–#115).
pub const PROFILE_LEN: usize = NUM_PACKET + GATE_FEATURES;

/// Builds (stacked) context profiles for connections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileBuilder {
    /// Number of consecutive single-packet profiles per stacked profile.
    pub stack: usize,
}

impl ProfileBuilder {
    pub fn new(stack: usize) -> Self {
        assert!(stack >= 1);
        ProfileBuilder { stack }
    }

    /// Width of one stacked profile (the autoencoder's input size).
    pub fn stacked_len(&self) -> usize {
        self.stack * PROFILE_LEN
    }

    /// Single-packet context profiles: packet features ‖ update gates ‖
    /// reset gates, one row per packet.
    pub fn single_profiles(
        &self,
        ranges: &RangeModel,
        rnn: &GruClassifier,
        fvs: &[FeatureVector],
    ) -> Vec<Vec<f32>> {
        let rnn_inputs: Vec<&[f32]> = fvs.iter().map(|fv| fv.base.as_slice()).collect();
        let trace = rnn.trace(&rnn_inputs);
        fvs.iter()
            .enumerate()
            .map(|(t, fv)| {
                let mut row = ranges.packet_features(fv);
                row.extend_from_slice(trace.zs.row(t));
                row.extend_from_slice(trace.rs.row(t));
                debug_assert_eq!(row.len(), PROFILE_LEN);
                row
            })
            .collect()
    }

    /// Stacked profiles in a sliding window (`n − stack + 1` rows for an
    /// n-packet connection; shorter connections are padded by repeating
    /// the final profile so every connection yields at least one row).
    pub fn stacked_profiles(
        &self,
        ranges: &RangeModel,
        rnn: &GruClassifier,
        fvs: &[FeatureVector],
    ) -> Matrix {
        let mut singles = self.single_profiles(ranges, rnn, fvs);
        if singles.is_empty() {
            return Matrix::zeros(0, self.stacked_len());
        }
        while singles.len() < self.stack {
            singles.push(singles.last().unwrap().clone());
        }
        let rows = singles.len() - self.stack + 1;
        let mut m = Matrix::zeros(rows, self.stacked_len());
        for r in 0..rows {
            let row = m.row_mut(r);
            for (j, single) in singles[r..r + self.stack].iter().enumerate() {
                row[j * PROFILE_LEN..(j + 1) * PROFILE_LEN].copy_from_slice(single);
            }
        }
        m
    }

    /// Maps a stacked-window index to the packet index CLAP reports when
    /// localizing: the window's center packet (clamped to the connection).
    pub fn window_center(&self, window_idx: usize, num_packets: usize) -> usize {
        (window_idx + self.stack / 2).min(num_packets.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_connection;
    use neural::GruClassifierConfig;

    fn small_rnn() -> GruClassifier {
        let cfg = GruClassifierConfig {
            input: crate::features::NUM_BASE,
            hidden: 32,
            classes: 22,
            epochs: 1,
            batch_size: 4,
            learning_rate: 1e-3,
            seed: 4,
        };
        GruClassifier::new(&cfg)
    }

    #[test]
    fn profile_dimensions_match_paper() {
        assert_eq!(PROFILE_LEN, 115, "Table 7 lists 115 per-packet entries");
        assert_eq!(
            ProfileBuilder::new(3).stacked_len(),
            345,
            "Table 6 AE input"
        );
    }

    #[test]
    fn stacked_profile_counts() {
        let conns = traffic_gen::dataset(11, 3);
        let rnn = small_rnn();
        let builder = ProfileBuilder::new(3);
        for conn in &conns {
            let fvs = extract_connection(conn);
            let ranges = RangeModel::fit(&fvs);
            let singles = builder.single_profiles(&ranges, &rnn, &fvs);
            assert_eq!(singles.len(), conn.len());
            let stacked = builder.stacked_profiles(&ranges, &rnn, &fvs);
            assert_eq!(stacked.rows, conn.len().max(3) - 2);
            assert_eq!(stacked.cols, 345);
        }
    }

    #[test]
    fn short_connection_padded() {
        let conns = traffic_gen::dataset(12, 1);
        let conn = &conns[0];
        let fvs = extract_connection(conn);
        let short = &fvs[..2]; // simulate a 2-packet trace
        let ranges = RangeModel::fit(short);
        let rnn = small_rnn();
        let stacked = ProfileBuilder::new(3).stacked_profiles(&ranges, &rnn, short);
        assert_eq!(stacked.rows, 1);
    }

    #[test]
    fn gate_values_are_probabilities() {
        let conns = traffic_gen::dataset(13, 2);
        let rnn = small_rnn();
        let builder = ProfileBuilder::new(3);
        for conn in &conns {
            let fvs = extract_connection(conn);
            let ranges = RangeModel::fit(&fvs);
            for row in builder.single_profiles(&ranges, &rnn, &fvs) {
                for &g in &row[NUM_PACKET..] {
                    assert!((0.0..=1.0).contains(&g), "gate value {g} out of [0,1]");
                }
            }
        }
    }

    #[test]
    fn window_center_mapping() {
        let b = ProfileBuilder::new(3);
        assert_eq!(b.window_center(0, 10), 1);
        assert_eq!(b.window_center(7, 10), 8);
        assert_eq!(b.window_center(9, 10), 9); // clamped
        let b1 = ProfileBuilder::new(1);
        assert_eq!(b1.window_center(4, 10), 4);
    }
}
