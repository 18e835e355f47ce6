//! The per-packet scoring core — CLAP's testing phase (paper Fig. 3) for
//! one packet of one flow: packet features ‖ GRU gates → context profile
//! → stacked window → autoencoder reconstruction error.
//!
//! This is the only inference path in the crate. [`StreamScorer`] calls
//! [`Scorer::advance`] per packet on a flow-table slot; [`ClapScorer`]
//! loops it over a connection on a one-slot arena — which is why online
//! and offline scores agree bitwise. (`microbatch` stages the rows
//! [`extract_row`] starts, replays each through [`Scorer::step_profile`]
//! — the GRU half of `advance` — in staging order, and scores the windows
//! they complete in one batched autoencoder pass.) A flow shorter than
//! the window stack is scored at close on one padded window, staged in a
//! [`PadStage`] and scored with up to three others through the
//! autoencoder's batched form.
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
    /// The current packet's GRU input (`base`), among its other features.
    pub(crate) fv: FeatureVector,
    /// 1×stacked_len window the current packet completed.
    pub(crate) window: Matrix,
    pub(crate) err_scratch: Vec<f32>,
    /// Closing flows' padded windows awaiting their batched pass.
    pads: PadStage,
    /// The current packet's profile row (features ‖ z ‖ r), built here
    /// and copied into the flow's ring after the window uses it.
    pub(crate) row: Vec<f32>,
    /// Dequantized hidden state staging for int8 resident state.
    h_scratch: Vec<f32>,
    /// Activation-code staging for int8 resident stores.
    code_scratch: Vec<u8>,
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
            window: Matrix::zeros(1, clap.config.stack * PROFILE_LEN),
            err_scratch: Vec::new(),
            pads: PadStage::new(clap.config.stack),
            row: vec![0.0; PROFILE_LEN],
            h_scratch: Vec::new(),
            code_scratch: Vec::new(),
        }
    }

    /// Advances `flow` by packet `p`, travelling in direction `dir`:
    /// incremental feature extraction, the GRU step and profile-ring store
    /// of [`step_profile`](Self::step_profile) and — once the flow has a
    /// full stack of profiles — the reconstruction error of the window
    /// this packet completes, which is returned. `clock`, when sampling,
    /// laps each stage.
    pub(crate) fn advance(
        &mut self,
        flow: Flow<'_>,
        p: &Packet,
        dir: Direction,
        clock: &mut Option<LapClock<'_>>,
    ) -> Option<f32> {
        let Flow {
            extractor,
            packets,
            resident,
            slot,
        } = flow;
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
        if !self.step_profile(resident, slot, t, clock) {
            return None;
        }
        self.err_scratch.clear();
        self.ae
            .reconstruction_errors_into(&self.window, &mut self.ae_ws, &mut self.err_scratch);
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::AeWindow);
        }
        Some(self.err_scratch[0])
    }

    /// The GRU half of packet `t` of the flow at `slot`, whose GRU input
    /// [`extract_row`] left in `fv.base` and whose features it left at the
    /// front of `row`: one resumable GRU step on the flow's resident
    /// hidden state fills the row's gates (`clock` laps it); a packet
    /// that completes a window — the previous `stack − 1` profiles from
    /// the flow's ring, this packet's from `row` — copies it into `window`
    /// and returns `true`; the row is then stored in the ring. Every
    /// packet's GRU step runs here, scored at once or staged.
    pub(crate) fn step_profile(
        &mut self,
        resident: &mut ResidentArena,
        slot: usize,
        t: usize,
        clock: &mut Option<LapClock<'_>>,
    ) -> bool {
        let (z, r) = self.row[NUM_PACKET..].split_at_mut(self.gru.hidden_size());
        let (gru, x, gru_scratch) = (&self.gru, &self.fv.base, &mut self.gru_scratch);
        resident.step_hidden(slot, &mut self.h_scratch, &mut self.code_scratch, |h| {
            gru.step(x, h, gru_scratch, z, r)
        });
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Gru);
        }
        // The ring must still be "as of packet `t − 1`" here.
        let complete = t + 1 >= self.builder.stack;
        if complete {
            resident.read_window(slot, t, &self.row, self.window.row_mut(0));
        }
        resident.store_profile(slot, t, &self.row, &mut self.code_scratch);
        complete
    }

    /// Stages the padded window of the flow at `slot` for the next
    /// [`score_staged`](Self::score_staged) — see [`PadStage::stage_pad`].
    pub(crate) fn stage_pad(
        &mut self,
        resident: &ResidentArena,
        slot: usize,
        packets: usize,
    ) -> bool {
        self.pads.stage_pad(resident, slot, packets)
    }

    /// Scores the windows [`stage_pad`](Self::stage_pad) staged — see
    /// [`PadStage::score_staged`].
    pub(crate) fn score_staged(&mut self, out: &mut [f32]) {
        self.pads.score_staged(&self.ae, out)
    }

    /// Drops the staged windows unscored (a flow-table reset).
    pub(crate) fn discard_staged(&mut self) {
        self.pads.clear();
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

/// Padded windows awaiting one batched autoencoder pass. A flow that ends
/// with fewer than `stack` packets is scored on one window — its profiles,
/// the last repeated until the window is full — and closing flows come in
/// runs (a scan's RSTs, an expiry sweep, [`finish`]), so their windows
/// are staged here and scored [`GEMM_ROWS`] at a time, one pass over the
/// weights per group instead of per flow. [`Scorer`] owns the one the
/// close path fills; an `&self` caller builds its own.
///
/// [`finish`]: crate::StreamScorer::finish
/// [`GEMM_ROWS`]: neural::simd::GEMM_ROWS
#[derive(Debug)]
pub(crate) struct PadStage {
    stack: usize,
    /// Row `i`: the `i`-th staged window.
    windows: Matrix,
    ws: AeWorkspace,
    errs: Vec<f32>,
}

impl PadStage {
    pub(crate) fn new(stack: usize) -> PadStage {
        PadStage {
            stack,
            windows: Matrix::zeros(0, stack * PROFILE_LEN),
            ws: AeWorkspace::new(),
            errs: Vec::new(),
        }
    }

    /// Copies the padded window of the flow at `slot`, which has scored
    /// `packets` packets, into the next staged row — the profiles are read
    /// now, so the slot may be recycled before the window is scored.
    /// `false`, staging nothing, for an empty flow and for one that has
    /// had its windows.
    pub(crate) fn stage_pad(
        &mut self,
        resident: &ResidentArena,
        slot: usize,
        packets: usize,
    ) -> bool {
        let stack = self.stack;
        if packets == 0 || packets >= stack {
            return false;
        }
        let row = self.windows.rows;
        self.windows.resize(row + 1, stack * PROFILE_LEN);
        // Packets 0..packets all still sit in the `stack − 1`-row ring.
        let dst = self.windows.row_mut(row);
        for (j, profile) in dst.chunks_exact_mut(PROFILE_LEN).enumerate() {
            resident.read_profile(slot, j.min(packets - 1), profile);
        }
        true
    }

    /// Scores every staged window in one batched autoencoder pass, writes
    /// the `i`-th staged window's error to `out[i]` and empties the stage.
    /// Each error is bitwise the one the window scores on alone.
    pub(crate) fn score_staged(&mut self, ae: &AeEngine<'_>, out: &mut [f32]) {
        assert_eq!(out.len(), self.windows.rows, "one error per staged window");
        self.errs.clear();
        ae.reconstruction_errors_into(&self.windows, &mut self.ws, &mut self.errs);
        out.copy_from_slice(&self.errs);
        self.clear();
    }

    fn clear(&mut self) {
        self.windows.resize(0, self.windows.cols);
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
