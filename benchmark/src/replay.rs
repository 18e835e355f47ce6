//! Layer replay: the packets of a pass, regrouped into connections and run
//! stage by stage through the public per-layer functions, so each stage
//! can be timed alone with a clock pair that costs nothing per packet.
//!
//! The stages are the ones `StreamScorer::push` runs for a packet of an
//! oriented flow — key + hash, tracker, feature extraction, one GRU step,
//! one 1-row autoencoder pass per window — and the replay's window errors
//! are checked against `ClapScorer::score_connection`, so the budget is
//! known to time the same computation. What the replay leaves out (flow
//! index probe/insert/remove, slab, wheel, ring store, resident
//! quantise/dequantise, close policy) is `stream.residual_ns`.

use clap_core::{
    Clap, FeatureExtractor, FeatureVector, QuantMode, NUM_BASE, NUM_PACKET, PROFILE_LEN,
};
use net_packet::wire::ParseError;
use net_packet::{CanonicalKey, Connection, Direction, Packet, Reassembler};
use neural::{AeEngine, AeWorkspace, GruEngine, GruStepScratch, Matrix};
use std::hash::{BuildHasher, RandomState};
use std::hint::black_box;
use std::time::Instant;
use tcp_state::FlowTracker;

use crate::workloads::Frames;

/// Stages run over this many packets (whole connections) per clock pair.
const BLOCK_PACKETS: usize = 256;

/// Parses and reassembles every frame, exactly as the driver does, and
/// keeps the packets the scorer would have been handed.
pub fn collect_packets(frames: &Frames) -> Vec<Packet> {
    let mut reasm = Reassembler::new();
    frames
        .iter()
        .filter_map(|(ts, bytes)| match Packet::from_bytes(ts, bytes) {
            Ok(p) => Some(p),
            Err(ParseError::Fragment { .. }) => reasm.push(ts, bytes),
            Err(_) => None,
        })
        .collect()
}

#[derive(Debug, Default)]
pub struct Replay {
    pub packets: u64,
    /// Autoencoder rows computed: sliding windows plus `pad_windows`.
    pub windows: u64,
    /// Windows padded at finalisation for flows shorter than the stack.
    pub pad_windows: u64,
    /// Nanoseconds per stage (indexed by the constants below) per block.
    blocks: Vec<[u64; 5]>,
    /// Connections whose replayed window errors differ from
    /// `score_connection` (first few, as messages).
    pub mismatches: Vec<String>,
    pub mismatched: u64,
}

impl Replay {
    /// `CanonicalKey::of` plus the hash the flow index takes of it.
    pub const KEY_HASH: usize = 0;
    /// Direction lookup plus `FlowTracker::process`.
    pub const TRACKER: usize = 1;
    /// `FeatureExtractor::push_into` plus `RangeModel::write_packet_features`.
    pub const FEATURES: usize = 2;
    /// `GruEngine::step`.
    pub const GRU: usize = 3;
    /// Window assembly plus a 1-row `AeEngine::reconstruction_errors_into`.
    pub const AE: usize = 4;

    /// Replays `conns` at the given precision. With `check`, every
    /// connection's window errors are compared with
    /// `ClapScorer::score_connection` (f32: within 1e-6; int8: bitwise).
    pub fn run(clap: &Clap, conns: &[Connection], quant: QuantMode, check: bool) -> Replay {
        let mut stages = Stages::new(clap, quant);
        let mut reference = clap.scorer_with(quant);
        let mut out = Replay::default();

        let mut start = 0;
        while start < conns.len() {
            let mut end = start;
            let mut n = 0;
            while end < conns.len() && n < BLOCK_PACKETS {
                n += conns[end].len();
                end += 1;
            }
            let block = &conns[start..end];
            stages.run(block, &mut out);
            start = end;
            if !check {
                continue;
            }
            // The pin, outside every clock.
            let mut at = 0;
            for (conn, &windows) in block.iter().zip(&stages.windows_per_conn) {
                let got = &stages.errors[at..at + windows];
                at += windows;
                let want = reference.score_connection(conn).window_errors;
                let same = got.len() == want.len()
                    && got.iter().zip(&want).all(|(g, w)| match quant {
                        QuantMode::Off => (g - w).abs() <= 1e-6,
                        QuantMode::Int8 => g.to_bits() == w.to_bits(),
                    });
                if !same {
                    out.mismatched += 1;
                    if out.mismatches.len() < 3 {
                        out.mismatches.push(format!(
                            "replay != score_connection for {}: {got:?} vs {want:?}",
                            conn.key
                        ));
                    }
                }
            }
        }
        out
    }

    /// Per block and stage, keeps the quicker of this replay's and
    /// `other`'s time (both must have replayed the same connections).
    pub fn keep_fastest(&mut self, other: &Replay) {
        assert_eq!(self.blocks.len(), other.blocks.len(), "different replays");
        for (mine, theirs) in self.blocks.iter_mut().zip(&other.blocks) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m = (*m).min(*t);
            }
        }
    }

    /// Total nanoseconds per stage.
    pub fn stage_ns(&self) -> [u64; 5] {
        let mut total = [0u64; 5];
        for b in &self.blocks {
            for (t, ns) in total.iter_mut().zip(b) {
                *t += ns;
            }
        }
        total
    }
}

struct Stages<'a> {
    clap: &'a Clap,
    stack: usize,
    hasher: RandomState,
    gru: GruEngine,
    ae: AeEngine<'a>,
    gru_scratch: GruStepScratch,
    ae_ws: AeWorkspace,
    fv: FeatureVector,
    h: Vec<f32>,
    window: Matrix,
    /// One profile row per packet of the block, connections back to back.
    rows: Vec<f32>,
    dirs: Vec<Direction>,
    errors: Vec<f32>,
    windows_per_conn: Vec<usize>,
}

impl<'a> Stages<'a> {
    fn new(clap: &'a Clap, quant: QuantMode) -> Stages<'a> {
        let gru = GruEngine::from_packed(clap.rnn.packed(), quant);
        Stages {
            clap,
            stack: clap.config.stack,
            hasher: RandomState::new(),
            h: vec![0.0; gru.hidden_size()],
            gru,
            ae: AeEngine::from_model(&clap.ae, quant),
            gru_scratch: GruStepScratch::new(),
            ae_ws: AeWorkspace::new(),
            fv: FeatureVector {
                base: Vec::new(),
                raw: Vec::new(),
                equiv_ok: false,
            },
            window: Matrix::zeros(1, clap.config.stack * PROFILE_LEN),
            rows: Vec::new(),
            dirs: Vec::new(),
            errors: Vec::new(),
            windows_per_conn: Vec::new(),
        }
    }

    fn run(&mut self, block: &[Connection], out: &mut Replay) {
        let mut ns = [0u64; 5];
        let packets: usize = block.iter().map(Connection::len).sum();
        out.packets += packets as u64;
        self.rows.clear();
        self.rows.resize(packets * PROFILE_LEN, 0.0);
        self.dirs.clear();
        self.errors.clear();
        self.windows_per_conn.clear();

        // Flow key + the hash the flow index takes of it.
        let t = Instant::now();
        let mut acc = 0u64;
        for p in block.iter().flat_map(|c| &c.packets) {
            acc ^= self.hasher.hash_one(CanonicalKey::of(p));
        }
        black_box(acc);
        ns[Replay::KEY_HASH] = t.elapsed().as_nanos() as u64;

        // Direction + protocol tracker.
        let t = Instant::now();
        for conn in block {
            let mut tracker = FlowTracker::for_proto(conn.key.proto);
            for (i, p) in conn.packets.iter().enumerate() {
                let dir = conn.direction(i);
                black_box(tracker.process(p, dir));
                self.dirs.push(dir);
            }
        }
        ns[Replay::TRACKER] = t.elapsed().as_nanos() as u64;

        // Incremental feature extraction into the profile row.
        let t = Instant::now();
        let mut k = 0;
        for conn in block {
            let mut extractor = FeatureExtractor::new();
            for p in &conn.packets {
                extractor.push_into(p, self.dirs[k], &mut self.fv);
                let row = &mut self.rows[k * PROFILE_LEN..(k + 1) * PROFILE_LEN];
                self.clap
                    .ranges
                    .write_packet_features(&self.fv, &mut row[..NUM_PACKET]);
                k += 1;
            }
        }
        ns[Replay::FEATURES] = t.elapsed().as_nanos() as u64;

        // One resumable GRU step per packet; the gates complete the row.
        let t = Instant::now();
        let hidden = self.gru.hidden_size();
        let mut k = 0;
        for conn in block {
            self.h.fill(0.0);
            for _ in &conn.packets {
                let row = &mut self.rows[k * PROFILE_LEN..(k + 1) * PROFILE_LEN];
                let (feat, gates) = row.split_at_mut(NUM_PACKET);
                let (z, r) = gates.split_at_mut(hidden);
                self.gru
                    .step(&feat[..NUM_BASE], &mut self.h, &mut self.gru_scratch, z, r);
                k += 1;
            }
        }
        ns[Replay::GRU] = t.elapsed().as_nanos() as u64;

        // One 1-row autoencoder pass per stacked window.
        let t = Instant::now();
        let mut k0 = 0;
        for conn in block {
            let n = conn.len();
            let rows = &self.rows[k0 * PROFILE_LEN..(k0 + n) * PROFILE_LEN];
            let before = self.errors.len();
            if n >= self.stack {
                for first in 0..=n - self.stack {
                    self.window.row_mut(0).copy_from_slice(
                        &rows[first * PROFILE_LEN..(first + self.stack) * PROFILE_LEN],
                    );
                    self.ae.reconstruction_errors_into(
                        &self.window,
                        &mut self.ae_ws,
                        &mut self.errors,
                    );
                }
            } else if n > 0 {
                // Finalisation of a short flow: pad by repeating the last row.
                let dst = self.window.row_mut(0);
                for j in 0..self.stack {
                    let src = j.min(n - 1);
                    dst[j * PROFILE_LEN..(j + 1) * PROFILE_LEN]
                        .copy_from_slice(&rows[src * PROFILE_LEN..(src + 1) * PROFILE_LEN]);
                }
                self.ae
                    .reconstruction_errors_into(&self.window, &mut self.ae_ws, &mut self.errors);
                out.pad_windows += 1;
            }
            self.windows_per_conn.push(self.errors.len() - before);
            k0 += n;
        }
        ns[Replay::AE] = t.elapsed().as_nanos() as u64;
        out.windows += self.errors.len() as u64;
        out.blocks.push(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_core::ClapConfig;

    #[test]
    fn replay_reproduces_score_connection_at_both_precisions() {
        let train = traffic_gen::dataset(5, 16);
        let mut cfg = ClapConfig::ci();
        cfg.rnn.epochs = 2;
        cfg.ae.epochs = 2;
        let (clap, _) = Clap::train(&train, &cfg);

        let mut conns = traffic_gen::mixed_dataset(6, 24);
        // A flow shorter than the stack takes the padded-window path.
        conns[0].packets.truncate(2);
        let mut packets: Vec<Packet> = conns.iter().flat_map(|c| c.packets.clone()).collect();
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));

        let conns = net_packet::assemble_connections(&packets);
        for quant in [QuantMode::Off, QuantMode::Int8] {
            let mut r = Replay::run(&clap, &conns, quant, true);
            assert_eq!(r.mismatched, 0, "{quant:?}: {:?}", r.mismatches);
            assert_eq!(r.packets, packets.len() as u64);
            assert!(r.pad_windows >= 1);
            assert!(r.windows > r.pad_windows);
            let once = r.stage_ns();
            assert!(once.iter().all(|&ns| ns > 0));
            r.keep_fastest(&Replay::run(&clap, &conns, quant, false));
            assert!(r
                .stage_ns()
                .iter()
                .zip(&once)
                .all(|(both, one)| both <= one));
        }
    }
}
