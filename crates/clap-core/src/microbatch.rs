//! Cross-flow micro-batching: the staging area and flush behind
//! [`StreamConfig::microbatch`] ≥ 2.
//!
//! **What this module knows:** the staging format (one row per staged
//! packet), the flush, and the flush-size histogram. **What it must
//! not:** which flows exist, when one closes, or why — it never opens,
//! closes or re-times a flow. [`StreamScorer`] decides *when* to stage
//! and flush ([`tick`], [`full`], and always before finalizing a flow);
//! everything between is here.
//!
//! With batching on, the scorer stops scoring each packet's GRU step / AE
//! window immediately and instead stages them across concurrent flows,
//! so that the autoencoder — the bulk of a packet's arithmetic — scores
//! the windows of many flows in one batched pass. Per packet, only the
//! cheap per-flow bookkeeping runs inline (TCP tracking, feature
//! extraction, timers — everything teardown and eviction decisions
//! depend on); the packet's neural work is staged into a pending set
//! keyed by slab handle: its GRU input row and the feature part of its
//! profile row. A bursty flow may stage *several*
//! consecutive packets. A **flush** replays every staged packet, in
//! staging order, through the per-packet GRU half of the scoring core
//! ([`Scorer::step_profile`]: the GRU step on the flow's resident hidden
//! state, the window read from its ring, the ring store), collecting the
//! windows they complete; one batched autoencoder pass then scores them
//! all. Staging order keeps each flow's packets in arrival order, so
//! packet `t` reads the hidden state and ring that packet `t − 1` stored,
//! exactly as it would per packet: only the windows batch.
//!
//! **Flush policy.** The pending set flushes when it reaches
//! [`StreamConfig::microbatch`] rows (batch full); when a pending
//! set has aged [`StreamConfig::microbatch_wait`] stream packets
//! (latency budget); always at the top of flow finalization (teardown,
//! length cap, idle/capacity eviction, linger expiry, [`finish`]) so
//! verdict timing and content never depend on batching; and on demand
//! via [`flush_pending`] (the sharded engine calls it when a shard
//! goes idle). A same-flow *collision never forces a flush*:
//! back-to-back packets of one flow — over a third of the ci corpus —
//! queue behind each other and the set keeps filling to capacity.
//!
//! **Ordering / finalization invariants.** Tracker state, packet
//! counts and `last_seen` advance at *staging* time, so teardown,
//! length-cap and eviction decisions — and therefore the order of the
//! closed-flow queue — are identical with batching on or off. Every
//! GRU step is the per-packet one, and a row's autoencoder error never
//! depends on its batch-mates, making micro-batched streaming **bitwise
//! identical** to per-packet streaming at both precisions — pinned by
//! proptests and a pcap regression test. The one observable difference:
//! [`push`] returns `None` for a packet whose window error is still
//! pending (the error surfaces in the flow's [`ClosedFlow`] log
//! instead).
//!
//! [`StreamConfig::microbatch`]: crate::StreamConfig::microbatch
//! [`StreamConfig::microbatch_wait`]: crate::StreamConfig::microbatch_wait
//! [`StreamScorer`]: crate::StreamScorer
//! [`ClosedFlow`]: crate::ClosedFlow
//! [`finish`]: crate::StreamScorer::finish
//! [`flush_pending`]: crate::StreamScorer::flush_pending
//! [`push`]: crate::StreamScorer::push
//! [`tick`]: MicroBatcher::tick
//! [`full`]: MicroBatcher::full

use crate::features::NUM_PACKET;
use crate::flow_table::FlowTable;
use crate::resident::ResidentArena;
use crate::scorer::{extract_row, Scorer};
use clap_telemetry::hist::Stage;
use clap_telemetry::StageRecorder;
use net_packet::Packet;
use neural::Matrix;

/// One staged packet of one flow in the pending micro-batch.
#[derive(Debug, Clone, Copy)]
struct PendItem {
    /// Slab handle of the flow.
    handle: u32,
    /// The packet's 0-based index within its flow.
    t: u32,
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
    /// Row `b`: item `b`'s packet features, the front of its profile row.
    feats: Matrix,
    /// The stacked windows completed by the flushing batch, one row per
    /// item with `t + 1 ≥ stack`, in staging order.
    windows: Matrix,
    /// Slab handle owning each `windows` row, for distributing the
    /// batched reconstruction errors.
    win_flows: Vec<u32>,
    /// Lifetime flush-size histogram: `occupancy[b − 1]` counts flushes
    /// of exactly `b` rows; grows at the first flush of each new size.
    /// Survives [`discard`](Self::discard).
    occupancy: Vec<u64>,
}

impl MicroBatcher {
    pub(crate) fn new(cap: usize, wait: usize) -> MicroBatcher {
        MicroBatcher {
            cap,
            wait: wait.max(1),
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
    /// staged packets queues this one behind them.
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
        self.feats.resize(b + 1, NUM_PACKET);
        let t = extract_row(
            &scorer.clap.ranges,
            &mut scorer.fv,
            &mut slot.extractor,
            &mut slot.packets,
            p,
            dir,
            self.feats.row_mut(b),
        );
        self.xs.resize(b + 1, scorer.gru.input_size());
        self.xs.row_mut(b).copy_from_slice(&scorer.fv.base);
        self.items.push(PendItem {
            handle: h,
            t: t as u32,
        });
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Extract);
        }
    }

    /// Scores every staged item: each, in staging order, goes back into
    /// the scorer's row and runs [`Scorer::step_profile`] — the per-packet
    /// GRU step, window read and ring store — and the windows they
    /// complete are scored in one batched autoencoder pass, each error
    /// appended to its flow's log. Every row reproduces the per-packet
    /// path bitwise (see the module docs). Never closes a flow; a no-op
    /// when nothing is staged.
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
        let width = scorer.window.cols;
        self.windows.resize(0, width);
        self.win_flows.clear();
        for (i, item) in self.items.iter().enumerate() {
            scorer.fv.base.copy_from_slice(self.xs.row(i));
            scorer.row[..NUM_PACKET].copy_from_slice(self.feats.row(i));
            let (hi, t) = (item.handle as usize, item.t as usize);
            if scorer.step_profile(resident, hi, t, &mut None) {
                let w = self.windows.rows;
                self.windows.resize(w + 1, width);
                self.windows
                    .row_mut(w)
                    .copy_from_slice(scorer.window.row(0));
                self.win_flows.push(item.handle);
            }
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
        // Staging order keeps each flow's windows in packet order.
        for (&h, &err) in self.win_flows.iter().zip(&scorer.err_scratch) {
            table[h].window_errors.push(err);
        }
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::AeWindow);
        }
        let b = self.items.len();
        if self.occupancy.len() < b {
            self.occupancy.resize(b, 0);
        }
        self.occupancy[b - 1] += 1;
        self.discard();
    }
}
