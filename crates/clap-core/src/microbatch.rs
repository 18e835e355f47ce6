//! Cross-flow micro-batching: the staging area and chain-round flush
//! behind [`StreamConfig::microbatch`] ≥ 2.
//!
//! **What this module knows:** the staging format (one row per staged
//! packet), chain rounds, and the flush-size histogram. **What it must
//! not:** which flows exist, when one closes, or why — it never opens,
//! closes or re-times a flow. [`StreamScorer`] decides *when* to stage
//! and flush ([`tick`], [`full`], and always before finalizing a flow);
//! everything between is here, and this is the only caller of
//! [`neural::PackedGru::step_batch`].
//!
//! With batching on, the scorer stops scoring each packet's GRU step / AE
//! window immediately and instead *continuously batches* ready work
//! across concurrent flows — the same trick inference servers use to
//! fill GEMM lanes from many concurrent requests. Per packet, only the
//! cheap per-flow bookkeeping runs inline (TCP tracking, feature
//! extraction, timers — everything teardown and eviction decisions
//! depend on); the packet's neural work is staged into a pending set
//! keyed by slab handle: its GRU input row and the feature part of its
//! profile row. A bursty flow may stage *several* consecutive packets —
//! each item records its position (`round`) in its flow's chain. A
//! **flush** then scores the whole set in chain rounds: round `r`
//! gathers the hidden state of every item that is the `r`-th staged
//! packet of its flow (dequantized from the resident arena under
//! [`ResidentMode::Int8`]), runs one batched GRU step over them and
//! scatters the states back (requantized in int8 resident mode), so
//! round `r + 1` reads exactly the states round `r` produced — the
//! cross-packet GRU dependency runs *between* rounds, never inside a
//! GEMM. Ring stores happen per item as its round completes, window
//! rows accumulate across rounds, and one batched autoencoder pass
//! scores every completed window at the end.
//!
//! **Flush policy.** The pending set flushes when it reaches
//! [`StreamConfig::microbatch`] rows (batch full); when a pending
//! set has aged [`StreamConfig::microbatch_wait`] stream packets
//! (latency budget); always at the top of flow finalization (teardown,
//! length cap, idle/capacity eviction, linger expiry, [`finish`]) so
//! verdict timing and content never depend on batching; and on demand
//! via [`flush_pending`] (the sharded engine calls it when a shard
//! goes idle). Chaining means a same-flow *collision never forces a
//! flush*: back-to-back packets of one flow — over a third of the ci
//! corpus — queue behind each other and the set keeps filling to
//! capacity.
//!
//! **Ordering / finalization invariants.** Tracker state, packet
//! counts and `last_seen` advance at *staging* time, so teardown,
//! length-cap and eviction decisions — and therefore the order of the
//! closed-flow queue — are identical with batching on or off. Rounds
//! replay each flow's staged packets in arrival order, and a chained
//! item's window is assembled only after the previous round stored
//! its predecessor's ring row, so the ring is exactly "as of packet
//! `t − 1`" when packet `t`'s window forms and each flow's
//! window-error log fills in packet order. Every batched row runs
//! through the same per-row kernels as the per-packet path (a batch is
//! one panel GEMV per row; per-row activation quantization at int8;
//! hidden states round-trip through the resident arena between chained
//! steps exactly as they do between per-packet steps), making micro-batched
//! streaming **bitwise identical** to per-packet streaming at both
//! precisions — pinned by proptests and a pcap regression test. The
//! one observable difference: [`push`] returns `None` for a packet
//! whose window error is still pending (the error surfaces in the
//! flow's [`ClosedFlow`] log instead).
//!
//! [`StreamConfig::microbatch`]: crate::StreamConfig::microbatch
//! [`StreamConfig::microbatch_wait`]: crate::StreamConfig::microbatch_wait
//! [`StreamScorer`]: crate::StreamScorer
//! [`ResidentMode::Int8`]: crate::ResidentMode::Int8
//! [`ClosedFlow`]: crate::ClosedFlow
//! [`finish`]: crate::StreamScorer::finish
//! [`flush_pending`]: crate::StreamScorer::flush_pending
//! [`push`]: crate::StreamScorer::push
//! [`tick`]: MicroBatcher::tick
//! [`full`]: MicroBatcher::full

use crate::features::NUM_PACKET;
use crate::flow_table::FlowTable;
use crate::profile::PROFILE_LEN;
use crate::resident::ResidentArena;
use crate::scorer::{extract_row, Scorer};
use clap_telemetry::hist::Stage;
use clap_telemetry::StageRecorder;
use net_packet::Packet;
use neural::{GruBatchScratch, Matrix};

/// One staged packet of one flow in the pending micro-batch.
#[derive(Debug, Clone, Copy)]
struct PendItem {
    /// Slab handle of the flow.
    handle: u32,
    /// The packet's 0-based index within its flow.
    t: u32,
    /// Position in its flow's pending chain: the `round`-th staged
    /// packet of this flow. Flushes process rounds in order, so packet
    /// `t`'s GRU step always consumes the state packet `t − 1`
    /// produced.
    round: u32,
}

/// Cross-flow micro-batch staging (see the module docs). All matrices
/// grow one row per staged packet and truncate at the next cycle's first;
/// steady-state batching allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct MicroBatcher {
    /// Flush threshold ([`StreamConfig::microbatch`](crate::StreamConfig::microbatch);
    /// < 2 disables).
    cap: usize,
    /// Latency budget ([`StreamConfig::microbatch_wait`](crate::StreamConfig::microbatch_wait)).
    wait: usize,
    /// Stream packets pushed since the pending set became non-empty.
    age: usize,
    items: Vec<PendItem>,
    /// Row `b`: item `b`'s GRU input (the packet's base features).
    xs: Matrix,
    /// Round-local GRU input gather: row `k` is the `k`-th item of the
    /// round being flushed (items of one round are rarely contiguous
    /// in `xs`, and the batched step wants a dense matrix).
    rxs: Matrix,
    /// Round-local hidden states, gathered from the resident arena at
    /// flush time (the previous round's scatter already landed there),
    /// updated in place by the batched step, scattered back.
    hs: Matrix,
    /// Update / reset gate outputs of the batched step, row per
    /// round-local item.
    zs: Matrix,
    rs: Matrix,
    /// Row `b`: item `b`'s profile row (features ‖ z ‖ r). The feature
    /// part is written at staging, the gate part at flush.
    rows: Matrix,
    /// The stacked windows completed by the flushing batch, one row per
    /// item with `t + 1 ≥ stack`, in round-major order.
    windows: Matrix,
    /// Slab handle owning each `windows` row, for distributing the
    /// batched reconstruction errors after the rounds run.
    win_flows: Vec<u32>,
    scratch: GruBatchScratch,
    /// Lifetime flush-size histogram: `occupancy[b − 1]` counts flushes
    /// of exactly `b` rows. Survives [`discard`](Self::discard).
    occupancy: Vec<u64>,
}

impl MicroBatcher {
    pub(crate) fn new(cap: usize, wait: usize) -> MicroBatcher {
        MicroBatcher {
            cap,
            wait: wait.max(1),
            occupancy: vec![0; cap],
            ..MicroBatcher::default()
        }
    }

    /// Whether packets are staged at all (capacity ≥ 2) rather than
    /// scored one by one.
    pub(crate) fn enabled(&self) -> bool {
        self.cap >= 2
    }

    /// One stream packet arrived. True when a pending set has now waited
    /// out its latency budget and must flush.
    pub(crate) fn tick(&mut self) -> bool {
        if self.items.is_empty() {
            return false;
        }
        self.age += 1;
        self.age >= self.wait
    }

    /// True when the pending set has reached capacity and must flush.
    pub(crate) fn full(&self) -> bool {
        self.items.len() >= self.cap
    }

    /// Lifetime flush-size histogram: entry `b` counts flushes of exactly
    /// `b + 1` rows. Empty when batching is off.
    pub(crate) fn occupancy(&self) -> &[u64] {
        &self.occupancy
    }

    /// Empties the pending set without scoring it: after a table reset
    /// (its slab handles are dead) and at the end of a flush.
    pub(crate) fn discard(&mut self) {
        self.items.clear();
        self.age = 0;
    }

    /// Stages packet `p` of the oriented flow at slab handle `h`: TCP
    /// tracking and feature extraction run now, so teardown and eviction
    /// decisions stay packet-exact; the GRU step and the window's
    /// autoencoder pass run at the next flush. A flow that already has
    /// staged packets chains behind them (the scan for its chain depth is
    /// bounded by the batch capacity).
    pub(crate) fn stage(
        &mut self,
        scorer: &mut Scorer<'_>,
        table: &mut FlowTable,
        h: u32,
        p: &Packet,
        stages: &mut StageRecorder,
    ) {
        let mut clock = stages.sample();
        let slot = &mut table[h];
        let dir = slot.register(p);
        let b = self.items.len();
        self.rows.resize(b + 1, PROFILE_LEN);
        let t = extract_row(
            &scorer.clap.ranges,
            &mut scorer.fv,
            &mut slot.extractor,
            &mut slot.packets,
            p,
            dir,
            self.rows.row_mut(b),
        );
        self.xs.resize(b + 1, scorer.gru.input_size());
        self.xs.row_mut(b).copy_from_slice(&scorer.fv.base);
        let round = self.items.iter().filter(|it| it.handle == h).count() as u32;
        self.items.push(PendItem {
            handle: h,
            t: t as u32,
            round,
        });
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Extract);
        }
    }

    /// Scores every staged item in chain rounds: round `r` gathers the
    /// hidden state of each flow's `r`-th staged packet from the resident
    /// arena (round `r − 1`'s scatter already landed there), runs one
    /// batched GRU step over the gathered rows, scatters the states back
    /// and does the per-item gate copy, window assembly and ring store;
    /// one batched autoencoder pass then scores every completed window
    /// across all rounds and appends each error to its flow's log. Every
    /// row reproduces the per-packet path bitwise (see the module docs).
    /// Never closes a flow; a no-op when nothing is staged.
    pub(crate) fn flush(
        &mut self,
        scorer: &mut Scorer<'_>,
        table: &mut FlowTable,
        resident: &mut ResidentArena,
        stages: &mut StageRecorder,
    ) {
        if self.items.is_empty() {
            return;
        }
        // Batched work amortizes across flows, so time the whole flush
        // (per-stage) rather than sampling individual packets.
        let mut clock = stages.start();
        let gru = &scorer.gru;
        let stack = scorer.builder.stack;
        let hidden = gru.hidden_size();

        self.windows.resize(0, stack * PROFILE_LEN);
        self.win_flows.clear();
        let mut round = 0u32;
        let mut remaining = self.items.len();
        while remaining > 0 {
            // Gather this round's items into dense matrices. The scans
            // are bounded by the batch capacity, and chains deeper than
            // one round exist only for flows that sent back-to-back
            // packets since the last flush.
            let b = self.items.iter().filter(|it| it.round == round).count();
            self.rxs.resize(b, gru.input_size());
            self.hs.resize(b, hidden);
            let mut k = 0;
            for (i, item) in self.items.iter().enumerate() {
                if item.round != round {
                    continue;
                }
                self.rxs.row_mut(k).copy_from_slice(self.xs.row(i));
                resident.read_hidden(item.handle as usize, self.hs.row_mut(k));
                k += 1;
            }

            gru.step_batch(
                &self.rxs,
                &mut self.hs,
                &mut self.scratch,
                &mut self.zs,
                &mut self.rs,
            );

            let mut k = 0;
            for (i, item) in self.items.iter().enumerate() {
                if item.round != round {
                    continue;
                }
                let (hi, t) = (item.handle as usize, item.t as usize);
                resident.store_hidden(hi, self.hs.row(k), &mut scorer.code_scratch);
                let (z, r) = self.rows.row_mut(i)[NUM_PACKET..].split_at_mut(hidden);
                z.copy_from_slice(self.zs.row(k));
                r.copy_from_slice(self.rs.row(k));
                if t + 1 >= stack {
                    let w = self.windows.rows;
                    self.windows.resize(w + 1, stack * PROFILE_LEN);
                    resident.read_window(hi, t, self.rows.row(i), self.windows.row_mut(w));
                    self.win_flows.push(item.handle);
                }
                resident.store_profile(hi, t, self.rows.row(i), &mut scorer.code_scratch);
                k += 1;
            }
            remaining -= b;
            round += 1;
        }
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Gru);
        }

        scorer.err_scratch.clear();
        if self.windows.rows > 0 {
            scorer.ae.reconstruction_errors_into(
                &self.windows,
                &mut scorer.ae_ws,
                &mut scorer.err_scratch,
            );
        }
        // Round-major distribution preserves each flow's packet order
        // (a flow's windows sit in consecutive rounds).
        for (&h, &err) in self.win_flows.iter().zip(&scorer.err_scratch) {
            table[h].window_errors.push(err);
        }
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::AeWindow);
        }
        self.occupancy[self.items.len() - 1] += 1;
        self.discard();
    }
}
