//! The per-packet scoring core — CLAP's testing phase (paper Fig. 3) for
//! one packet of one flow: packet features ‖ GRU gates → context profile
//! → stacked window → autoencoder reconstruction error.
//!
//! This is the only inference path in the crate. [`StreamScorer`] calls
//! [`Scorer::advance`] per packet on a flow-table slot; [`ClapScorer`]
//! loops it over a connection on a one-slot arena — which is why online
//! and offline scores agree bitwise. (`microbatch` stages the rows
//! [`extract_row`] starts and sends them through the batched forms of the
//! same two engine calls.)
//!
//! [`StreamScorer`]: crate::StreamScorer
//! [`ClapScorer`]: crate::ClapScorer

use crate::features::{FeatureExtractor, FeatureVector, RangeModel, NUM_PACKET};
use crate::pipeline::Clap;
use crate::profile::{ProfileBuilder, PROFILE_LEN};
use crate::resident::ResidentArena;
use crate::score::{score_errors, ScoredConnection};
use clap_telemetry::hist::{LapClock, Stage};
use net_packet::{Direction, Packet};
use neural::{AeEngine, AeWorkspace, GruEngine, GruStepScratch, Matrix};

/// One flow's scoring state, borrowed for a call from wherever it lives: a
/// flow-table slot and its arena rows, or a [`ClapScorer`]'s locals.
///
/// [`ClapScorer`]: crate::ClapScorer
pub(crate) struct Flow<'s> {
    /// Feature anchors (ISNs, previous timestamps).
    pub(crate) extractor: &'s mut FeatureExtractor,
    /// Packets scored so far.
    pub(crate) packets: &'s mut u32,
    /// Holds the flow's hidden vector and profile ring, at `slot`.
    pub(crate) resident: &'s mut ResidentArena,
    pub(crate) slot: usize,
}

/// The engines (f32 or int8) and every flow-independent scratch buffer
/// the core threads through; scoring through it allocates nothing once
/// the buffers have been through one packet.
pub(crate) struct Scorer<'a> {
    pub(crate) clap: &'a Clap,
    pub(crate) builder: ProfileBuilder,
    pub(crate) gru: GruEngine,
    pub(crate) ae: AeEngine<'a>,
    gru_scratch: GruStepScratch,
    pub(crate) ae_ws: AeWorkspace,
    pub(crate) fv: FeatureVector,
    /// 1×stacked_len window staged for the autoencoder.
    window: Matrix,
    pub(crate) err_scratch: Vec<f32>,
    /// The current packet's profile row (features ‖ z ‖ r), built here
    /// and copied into the flow's ring after the window uses it.
    row: Vec<f32>,
    /// Dequantized hidden state staging for int8 resident state.
    h_scratch: Vec<f32>,
    /// Activation-code staging for int8 resident stores.
    pub(crate) code_scratch: Vec<u8>,
}

impl<'a> Scorer<'a> {
    pub(crate) fn new(clap: &'a Clap, gru: GruEngine, ae: AeEngine<'a>) -> Scorer<'a> {
        Scorer {
            clap,
            builder: ProfileBuilder::new(clap.config.stack),
            gru,
            ae,
            gru_scratch: GruStepScratch::new(),
            ae_ws: AeWorkspace::new(),
            fv: FeatureVector {
                base: Vec::new(),
                raw: Vec::new(),
                equiv_ok: false,
            },
            window: Matrix::default(),
            err_scratch: Vec::new(),
            row: Vec::new(),
            h_scratch: Vec::new(),
            code_scratch: Vec::new(),
        }
    }

    /// Advances `flow` by packet `p`, travelling in direction `dir`:
    /// incremental feature extraction, one resumable GRU step, the
    /// profile-ring store and — once the flow has a full stack of profiles
    /// — the reconstruction error of the window this packet completes,
    /// which is returned. `clock`, when sampling, laps each stage.
    pub(crate) fn advance(
        &mut self,
        flow: Flow<'_>,
        p: &Packet,
        dir: Direction,
        clock: &mut Option<LapClock<'_>>,
    ) -> Option<f32> {
        let stack = self.builder.stack;
        let hidden = self.gru.hidden_size();
        let Flow {
            extractor,
            packets,
            resident,
            slot,
        } = flow;
        // Packet `t`'s single-packet context profile, built in scratch.
        self.row.resize(PROFILE_LEN, 0.0);
        let t = extract_row(
            &self.clap.ranges,
            &mut self.fv,
            extractor,
            packets,
            p,
            dir,
            &mut self.row,
        );
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Extract);
        }
        let (z, r) = self.row[NUM_PACKET..].split_at_mut(hidden);
        let (gru, x, gru_scratch) = (&self.gru, &self.fv.base, &mut self.gru_scratch);
        resident.step_hidden(slot, &mut self.h_scratch, &mut self.code_scratch, |h| {
            gru.step(x, h, gru_scratch, z, r)
        });
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Gru);
        }

        // A full stack of profiles completes one sliding window: the
        // previous `stack − 1` rows from the flow's ring, packet `t`'s
        // from scratch.
        let mut emitted = None;
        if t + 1 >= stack {
            self.window.resize(1, stack * PROFILE_LEN);
            resident.read_window(slot, t, &self.row, self.window.row_mut(0));
            emitted = Some(self.window_error());
            if let Some(c) = clock.as_mut() {
                c.lap(Stage::AeWindow);
            }
        }
        resident.store_profile(slot, t, &self.row, &mut self.code_scratch);
        emitted
    }

    /// The one window a flow that ends with fewer than `stack` packets is
    /// scored on: its profiles, the last one repeated until the window is
    /// full. `None` for an empty flow and for one that has had its
    /// windows.
    pub(crate) fn pad(
        &mut self,
        resident: &ResidentArena,
        slot: usize,
        packets: usize,
    ) -> Option<f32> {
        let stack = self.builder.stack;
        if packets == 0 || packets >= stack {
            return None;
        }
        // Packets 0..packets all still sit in the `stack − 1`-row ring.
        self.window.resize(1, stack * PROFILE_LEN);
        let dst = self.window.row_mut(0);
        for j in 0..stack {
            resident.read_profile(
                slot,
                j.min(packets - 1),
                &mut dst[j * PROFILE_LEN..(j + 1) * PROFILE_LEN],
            );
        }
        Some(self.window_error())
    }

    /// Reconstruction error of the staged window.
    fn window_error(&mut self) -> f32 {
        self.err_scratch.clear();
        self.ae
            .reconstruction_errors_into(&self.window, &mut self.ae_ws, &mut self.err_scratch);
        self.err_scratch[0]
    }

    /// Summarizes a finished flow's window errors into its verdict.
    pub(crate) fn verdict(&self, window_errors: Vec<f32>, packets: usize) -> ScoredConnection {
        let (peak_window, score) = score_errors(&window_errors, self.clap.config.score_window);
        ScoredConnection {
            peak_packet: self.builder.window_center(peak_window, packets),
            peak_window,
            window_errors,
            score,
        }
    }
}

/// Extracts `p` as the next packet of a flow and starts its profile row
/// (packet features ‖ update gates ‖ reset gates): the extractor and the
/// packet count advance, the GRU input lands in `fv.base` and the feature
/// third at the front of `row`; the gate two-thirds are the GRU step's to
/// fill. Returns the packet's 0-based index in its flow.
pub(crate) fn extract_row(
    ranges: &RangeModel,
    fv: &mut FeatureVector,
    extractor: &mut FeatureExtractor,
    packets: &mut u32,
    p: &Packet,
    dir: Direction,
    row: &mut [f32],
) -> usize {
    extractor.push_into(p, dir, fv);
    let t = *packets as usize;
    *packets += 1;
    ranges.write_packet_features(fv, &mut row[..NUM_PACKET]);
    t
}
