//! Streaming per-flow scoring — the online counterpart of
//! [`Clap::score_connection`].
//!
//! The batch pipeline scores *complete* connections: capture, reassemble,
//! score. A line-rate DPI deployment cannot wait for completeness — it sees
//! one interleaved packet stream over millions of concurrent flows and must
//! emit verdicts as packets arrive. [`StreamScorer`] is that mode:
//!
//! * **A thin composition.** `StreamScorer` is a flow table
//!   (`flow_table`: key index, slab, expiry queue) around
//!   the crate's one per-packet scoring core (`scorer`: extract → GRU step
//!   → window → autoencoder) and the arena that holds each flow's neural
//!   state (`resident`). This module is the policy between them:
//!   orientation, when a flow closes and why, and the verdict queue.
//! * **One verdict per packet, as it arrives.** Each packet is scored
//!   through the core before [`StreamScorer::push`] returns, and the
//!   window error it returns is the one the flow's [`ClosedFlow`] log
//!   records; nothing is staged across flows or scored later.
//! * **Per-flow state, shared scratch.** Each live flow persists only what
//!   the model mathematically needs: the incremental feature-extraction
//!   anchors ([`FeatureExtractor`](crate::FeatureExtractor)), a
//!   [`FlowTracker`](tcp_state::FlowTracker) for teardown detection,
//!   the GRU hidden state (`H` floats, advanced by
//!   [`PackedGru::step`]), the last `stack − 1` single-packet profiles,
//!   and the flow's window-error log. Everything else — GRU step scratch,
//!   the 1×345 window matrix, the autoencoder workspace, the current
//!   packet's profile row — belongs to the scoring core and is shared
//!   across all flows, so steady-state scoring performs **no per-packet
//!   heap allocation** (the only growth is each flow's error log,
//!   amortized).
//! * **Exact batch equivalence.** Feeding a connection's packets one at a
//!   time yields the same window errors and final score as the offline
//!   path, bitwise, because the offline path *is* this one:
//!   [`ClapScorer::score_connection`] loops the same core over the
//!   connection's packets on a one-slot arena. What the streaming-vs-batch
//!   property tests pin is therefore the flow table — orientation,
//!   teardown, padding, eviction.
//! * **Bounded memory.** Flows are evicted on TCP teardown (RST, or an
//!   orderly close reaching TIME_WAIT), on idle timeout (a queue in
//!   last-seen order), on a per-flow packet cap, and by dropping the
//!   stalest flow when the table is full. Every eviction finalizes the
//!   flow and emits its [`ScoredConnection`].
//! * **Padded windows score at close.** A flow that closes shorter than
//!   the window stack is scored then on one padded window, answered from
//!   the scoring core's memo when a flow before it padded to the same
//!   bits ([`StreamScorer::pad_windows`] counts them). The GRU steps of a
//!   flow's first `stack − 1` packets are answered the same way when a
//!   flow before it stepped through the same bits
//!   ([`StreamScorer::prefix_steps`]).
//! * **Arrival tags.** Every packet carries an arrival tag — the scorer's
//!   own 0-based counter under [`StreamScorer::push`], or a
//!   caller-supplied index under [`StreamScorer::push_tagged`] — and each
//!   flow remembers its first packet's tag ([`ClosedFlow::arrival`]),
//!   surviving orient-buffer replays and same-push restarts. The
//!   RSS-sharded front end merges per-shard verdicts on exactly this tag,
//!   with no bookkeeping of its own.
//! * **Engine precision.** [`StreamConfig::quant`] packs the engines'
//!   weights as f32 or as int8 (`neural::quant`); the engines, and so the
//!   code that advances a flow, are the same either way, and within
//!   either precision streaming equals batch scoring at that precision.
//!
//! # Flow lifetime
//!
//! **Teardown finalizes inline.** With
//! [`StreamConfig::teardown_on_close`] (the default), the packet that
//! takes a flow's TCP tracker to CLOSE (an RST) or TIME_WAIT (an orderly
//! close) finalizes the flow, reason [`CloseReason::TcpClose`], before
//! [`StreamScorer::push`] returns: there is no linger. A later packet on
//! the same 4-tuple — a FIN retransmit, a stray ACK or a fresh SYN
//! reusing it — opens a new flow under its own arrival tag. The table
//! has one timeout class, [`StreamConfig::idle_timeout`].
//!
//! For a fresh SYN that is the intent. For a post-teardown straggler it
//! is an open defect, not a design choice: the straggler becomes a
//! one-packet flow, often keyed server-as-client, scored on one padded
//! window, and such flows can top a verdict table (ROADMAP item 15).
//! Dropping such packets, or attributing them to the flow that just
//! closed, would mend it without a second timeout class.
//!
//! **Orientation** matches the offline reassembler for every realistic
//! capture: a flow whose first packet is a pure SYN is oriented
//! immediately (the SYN sender is the client), as is every UDP flow (its
//! first sender is); a TCP flow that starts mid-capture buffers up to
//! [`StreamConfig::orient_buffer`] leading packets *unprocessed*, so a
//! pure SYN arriving among them can retroactively re-orient the flow
//! before any feature is extracted — exactly what
//! [`net_packet::assemble_connections`] does offline. Only a
//! pure SYN arriving *after* the buffer has flushed diverges (the offline
//! reassembler re-orients at any depth; a streaming scorer cannot rewrite
//! already-scored history). The remaining divergence by design: a
//! connection reusing its 4-tuple after teardown becomes a *new* flow
//! rather than one long connection.
//!
//! ```
//! use clap_core::{Clap, ClapConfig};
//!
//! let benign = traffic_gen::dataset(42, 40);
//! let (clap, _) = Clap::train(&benign, &ClapConfig::ci());
//!
//! let mut scorer = clap.stream_scorer();
//! for conn in &benign[..4] {
//!     for p in &conn.packets {
//!         // Window errors surface online, packet by packet.
//!         let _maybe_err: Option<f32> = scorer.push(p);
//!     }
//! }
//! // FIN-terminated flows were finalized inline; drain the rest.
//! let closed = scorer.finish();
//! assert!(!closed.is_empty());
//! assert!(closed.iter().all(|c| c.scored.score.is_finite()));
//! ```
//!
//! [`PackedGru::step`]: neural::PackedGru::step
//! [`ClapScorer::score_connection`]: crate::ClapScorer::score_connection

pub use crate::flow_table::EvictionMode;
use crate::flow_table::{FlowTable, KeyHash};
use crate::pipeline::Clap;
use crate::resident::ResidentArena;
pub use crate::resident::ResidentMode;
use crate::score::{score_errors, ScoredConnection};
pub use crate::scorer::MemoCounts;
use crate::scorer::{Flow, Scorer};
use clap_telemetry::{StageHists, StageRecorder, StreamCells};
use net_packet::{CanonicalKey, Endpoint, FlowKey, Packet, TcpFlags};
use neural::{AeEngine, GruEngine, QuantMode};
use serde::{Deserialize, Serialize};
use tcp_state::TcpState;

/// Flow-table policy for a [`StreamScorer`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Evict flows idle for longer than this many seconds. The clock is
    /// the maximum packet timestamp seen, so replayed captures age flows
    /// at capture speed, not wall-clock speed.
    pub idle_timeout: f64,
    /// Hard cap on concurrently tracked flows; at capacity the stalest
    /// flow is evicted to admit a new one.
    pub max_flows: usize,
    /// Finalize a flow when its tracker reaches `CLOSE` (RST) or
    /// `TIME_WAIT` (orderly close). Disable to score past teardown — e.g.
    /// when comparing against batch scoring of captures that keep packets
    /// after a close.
    pub teardown_on_close: bool,
    /// Kept only so `benchmark/`, which spells out every field, compiles;
    /// anything but `0.0` panics.
    #[doc(hidden)]
    pub time_wait: f64,
    /// Finalize a flow after this many packets regardless of TCP state,
    /// bounding per-flow memory (the error log grows one `f32` per packet
    /// past the stack depth). Subsequent packets start a fresh flow.
    pub max_packets_per_flow: usize,
    /// Close the expired flows every this many packets. With
    /// [`EvictionMode::Wheel`] each boundary costs O(expired flows); with
    /// [`EvictionMode::Sweep`] it costs O(live flows).
    pub sweep_interval: usize,
    /// A TCP flow that does **not** begin with a pure SYN (a mid-capture
    /// start) buffers up to this many leading packets before anything is
    /// scored, so a late pure SYN among them re-orients the flow exactly
    /// like the offline reassembler. A UDP flow has no SYN to wait for and
    /// scores from its first packet. `0` restores first-packet pinning.
    pub orient_buffer: usize,
    /// Engine precision for this scorer's GRU and autoencoder
    /// ([`QuantMode::Int8`] runs the int8 quantized kernels). Defaults to
    /// [`QuantMode::Off`], exact f32.
    pub quant: QuantMode,
    /// Expiry mechanism — last-seen-ordered queues by default, full-scan
    /// sweep as the equivalence-test reference.
    pub eviction: EvictionMode,
    /// Per-flow resident-state precision. Independent of [`quant`]
    /// (weights vs state); defaults to exact f32.
    ///
    /// [`quant`]: StreamConfig::quant
    pub resident: ResidentMode,
    /// Kept only so `benchmark/`, which spells out every field, compiles; ≥ 2 panics.
    #[doc(hidden)]
    pub microbatch: usize,
    /// Kept only so `benchmark/`, which spells out every field, compiles; read by nothing.
    #[doc(hidden)]
    pub microbatch_wait: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            idle_timeout: 300.0,
            max_flows: 1 << 20,
            teardown_on_close: true,
            time_wait: 0.0,
            max_packets_per_flow: 1 << 20,
            sweep_interval: 4096,
            orient_buffer: 3,
            quant: QuantMode::Off,
            eviction: EvictionMode::default(),
            resident: ResidentMode::default(),
            microbatch: 0,
            microbatch_wait: 64,
        }
    }
}

impl StreamConfig {
    /// Panics on a cross-flow micro-batch capacity (`microbatch` ≥ 2): the
    /// engine scores every packet as it arrives and has no batched mode.
    /// Panics on a TIME_WAIT linger (`time_wait` ≠ 0): a flow closes on
    /// the packet that takes it to TIME_WAIT.
    pub(crate) fn assert_per_packet(&self) {
        assert!(
            self.microbatch < 2,
            "StreamConfig::microbatch = {}: the engine has no cross-flow \
             micro-batching, it scores every packet as it arrives (set it to 0)",
            self.microbatch
        );
        assert!(
            self.time_wait == 0.0,
            "StreamConfig::time_wait = {}: the engine has no TIME_WAIT linger, \
             a flow closes on the packet that takes it to TIME_WAIT (set it to 0.0)",
            self.time_wait
        );
    }
}

/// Why a flow left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CloseReason {
    /// TCP teardown observed: the flow's tracker reached CLOSE (an RST) or
    /// TIME_WAIT (an orderly close) on its last packet.
    TcpClose,
    /// No packets for [`StreamConfig::idle_timeout`] seconds.
    IdleTimeout,
    /// Evicted to admit a new flow at [`StreamConfig::max_flows`].
    CapacityEvicted,
    /// Hit [`StreamConfig::max_packets_per_flow`].
    LengthCapped,
    /// Flushed by [`StreamScorer::finish`].
    Drained,
}

/// A finalized flow: its identity, size, why it closed, the arrival tag
/// of its first packet and the same [`ScoredConnection`] the batch path
/// would have produced.
#[derive(Debug, Clone)]
pub struct ClosedFlow {
    pub key: FlowKey,
    pub packets: usize,
    pub reason: CloseReason,
    /// Arrival tag of this flow incarnation's **first** packet: the
    /// caller-supplied value from [`StreamScorer::push_tagged`], or the
    /// scorer's own 0-based packet counter under plain
    /// [`StreamScorer::push`]. A flow that restarts (length cap, idle
    /// sweep, teardown) carries the tag of the packet that opened the new
    /// incarnation — a pure function of the input stream, which is what
    /// lets the sharded front end merge verdicts deterministically
    /// without any shadow bookkeeping.
    pub arrival: u64,
    pub scored: ScoredConnection,
}

/// Lifetime flow-table counters (they survive [`StreamScorer::reset`];
/// `flows_peak` is the high-water mark of concurrently live flows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Peak concurrently tracked flows (== slab size: slots are only
    /// allocated when the free list is empty).
    pub flows_peak: usize,
    /// Flows evicted by the idle timeout.
    pub evicted_idle: u64,
    /// Flows evicted to admit new ones at [`StreamConfig::max_flows`].
    pub evicted_capacity: u64,
    /// Flows finalized by TCP teardown.
    pub closed_tcp: u64,
    /// Flows finalized at [`StreamConfig::max_packets_per_flow`].
    pub length_capped: u64,
    /// Flows flushed by [`StreamScorer::finish`].
    pub drained: u64,
}

/// Point-in-time view of one live flow-table entry — the conntrack-style
/// introspection record behind [`StreamScorer::flow_entries`]. Everything
/// here is a *current* value; the flow keeps scoring after the dump. Its
/// times are instants on the capture's clock, not durations: how old or
/// idle a flow is depends on the instant it is measured against, which
/// the reader picks (`exp_stream_pcap --dump-flows` takes the capture's
/// last timestamp). On a capture in timestamp order they are packets' own
/// timestamps, so a dump reads the same whichever scorer — or shard —
/// holds the flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowEntry {
    /// The flow's oriented 5-tuple (client endpoint first).
    pub key: FlowKey,
    /// TCP connection state, `None` for non-TCP flows.
    pub state: Option<TcpState>,
    /// Packets scored so far (this incarnation).
    pub packets: u64,
    /// Wire bytes seen so far (this incarnation).
    pub bytes: u64,
    /// The stream clock at the incarnation's first packet: the largest
    /// capture timestamp seen up to it — the packet's own on a capture in
    /// timestamp order.
    pub first_seen: f64,
    /// The stream clock at the flow's last packet (`≥ first_seen`).
    pub last_seen: f64,
    /// Arrival tag of the incarnation's first packet.
    pub arrival: u64,
    /// The anomaly score the flow would close with right now — for a flow
    /// shorter than the window stack, that of its padded window. A flow
    /// still holding its leading packets for orientation
    /// ([`StreamConfig::orient_buffer`]) has scored none yet and reports
    /// `0.0`.
    pub score: f32,
}

/// Online per-flow scoring session over one interleaved packet stream.
/// Create via [`Clap::stream_scorer`] (or
/// [`Clap::stream_scorer_with`] for a custom [`StreamConfig`]); one
/// scorer per ingest thread.
pub struct StreamScorer<'a> {
    config: StreamConfig,
    /// The per-packet scoring core: engines and flow-independent scratch.
    scorer: Scorer<'a>,
    /// Which flows exist and when they leave.
    table: FlowTable,
    /// Each flow's hidden vector and profile ring, at its table handle.
    resident: ResidentArena,
    /// Flows finalized since the last [`drain_closed`](Self::drain_closed).
    closed: Vec<ClosedFlow>,
    /// Flow-table counters, published through wait-free telemetry cells so
    /// any thread can snapshot them mid-run (see
    /// [`attach_telemetry`](Self::attach_telemetry)). A scorer built
    /// standalone owns a private set.
    cells: std::sync::Arc<StreamCells>,
    /// Per-stage latency clocks (inert unless a [`StageHists`] sink is
    /// attached).
    stages: StageRecorder,
    /// Scratch for the handles a sweep boundary found expired.
    due: Vec<u32>,
    /// Max packet timestamp seen (the stream clock).
    clock: f64,
    packets_since_sweep: usize,
    /// Arrival counter backing plain [`push`](Self::push); kept one past
    /// the largest tag seen so mixing `push` after `push_tagged` stays
    /// monotone.
    auto_seq: u64,
}

impl Clap {
    /// Builds a streaming per-flow scorer with the default table policy
    /// ([`StreamConfig::default`]: f32 engines, per-packet scoring).
    pub fn stream_scorer(&self) -> StreamScorer<'_> {
        self.stream_scorer_with(StreamConfig::default())
    }

    /// Builds a streaming per-flow scorer with an explicit table policy.
    ///
    /// # Panics
    ///
    /// If `config.microbatch` ≥ 2: every packet is scored as it arrives,
    /// and there is no cross-flow batched mode. If `config.time_wait` is
    /// not `0.0`: a flow closes on the packet that takes it to TIME_WAIT,
    /// and there is no linger.
    pub fn stream_scorer_with(&self, config: StreamConfig) -> StreamScorer<'_> {
        config.assert_per_packet();
        let gru = GruEngine::from_packed(self.rnn.packed(), config.quant);
        StreamScorer {
            resident: ResidentArena::new(
                config.resident,
                gru.hidden_size(),
                self.config.stack,
                config.max_flows,
            ),
            scorer: Scorer::new(self, gru, AeEngine::from_model(&self.ae, config.quant)),
            table: FlowTable::new(config.idle_timeout, config.max_flows, config.eviction),
            config,
            closed: Vec::new(),
            cells: std::sync::Arc::new(StreamCells::default()),
            stages: StageRecorder::new(),
            due: Vec::new(),
            clock: 0.0,
            packets_since_sweep: 0,
            auto_seq: 0,
        }
    }
}

impl StreamScorer<'_> {
    /// Consumes one packet from the interleaved stream, tagging it with
    /// the scorer's own 0-based arrival counter (see
    /// [`push_tagged`](Self::push_tagged) for caller-supplied tags).
    ///
    /// Returns the reconstruction error of the stacked window completed by
    /// this packet, if the flow has accumulated enough packets — the
    /// online anomaly signal. For a flow still buffering its leading
    /// packets (orientation undecided, see
    /// [`StreamConfig::orient_buffer`]) the buffered packets are scored in
    /// order once orientation resolves, and the error returned is that of
    /// the latest completed window. Flows torn down by this packet (TCP
    /// close, length cap) are finalized and queued for
    /// [`drain_closed`](Self::drain_closed). Every error returned is the
    /// one the flow's [`ClosedFlow`] log records, in the same order.
    pub fn push(&mut self, p: &Packet) -> Option<f32> {
        let tag = self.auto_seq;
        self.push_tagged(p, tag)
    }

    /// [`push`](Self::push) with a caller-supplied arrival tag for this
    /// packet. The tag of a flow incarnation's *first* packet surfaces on
    /// its [`ClosedFlow::arrival`] — the hook the RSS-sharded front end
    /// uses to merge per-shard verdicts in global first-appearance order
    /// without tracking any per-flow state of its own. Tags are opaque to
    /// the scorer (any `u64`); a flow that restarts inside one push (e.g.
    /// teardown during an orient-buffer replay) re-opens under the tag of
    /// the buffered packet that actually starts the new incarnation.
    pub fn push_tagged(&mut self, p: &Packet, tag: u64) -> Option<f32> {
        self.auto_seq = self.auto_seq.max(tag.wrapping_add(1));
        self.clock = self.clock.max(p.timestamp);
        self.packets_since_sweep += 1;
        if self.packets_since_sweep >= self.config.sweep_interval.max(1) {
            self.packets_since_sweep = 0;
            self.expire_due();
        }
        self.ingest(p, tag)
    }

    /// [`push_tagged`](Self::push_tagged) minus the clock/sweep
    /// bookkeeping, so replayed buffered packets do not count as new
    /// stream arrivals.
    fn ingest(&mut self, p: &Packet, tag: u64) -> Option<f32> {
        let ck = CanonicalKey::of(p);
        let is_pure_syn =
            p.tcp_flags().contains(TcpFlags::SYN) && !p.tcp_flags().contains(TcpFlags::ACK);
        let (hash, handle) = self.table.lookup(&ck);
        let h = match handle {
            Some(h) => h,
            None => {
                if self.table.len() >= self.config.max_flows.max(1) {
                    if let Some(victim) = self.table.probe_stalest() {
                        self.close_flow(victim, CloseReason::CapacityEvicted);
                    }
                }
                // Orientation: a pure SYN identifies the initiator
                // outright; anything else is provisionally
                // first-packet-oriented and — for TCP, with a non-zero
                // orient buffer — held back so a late SYN can still
                // re-orient it. A UDP flow never sees a SYN.
                let (h, appended) = self.table.open(hash, sender_as_client(p), self.clock, tag);
                if appended {
                    // Clamped to the table's size, the arena adds its
                    // chunks at the pushes the slab adds its own.
                    self.resident.push_slot();
                } else {
                    self.resident.clear_slot(h as usize);
                }
                if !is_pure_syn && p.transport.tcp().is_some() && self.config.orient_buffer > 0 {
                    self.table[h].pending = Some(Box::new(Vec::with_capacity(1)));
                }
                self.cells
                    .flow_opened(self.table.len() as u64, self.table.slots() as u64);
                h
            }
        };

        self.table.touch(h, self.clock);
        let slot = &mut self.table[h];
        if let Some(buf) = slot.pending.as_mut() {
            if is_pure_syn {
                // The SYN sender is the real client; re-orient before any
                // packet of this flow has been scored, then replay.
                slot.key = sender_as_client(p);
            } else if buf.len() < self.config.orient_buffer {
                buf.push((tag, p.clone()));
                return None;
            }
            // Buffer full (no SYN showed up) or SYN-resolved: flush.
            let buffered = slot.pending.take().expect("pending checked above");
            return self.replay(hash, ck, &buffered, p, tag);
        }
        self.score_packet(h, p)
    }

    /// Scores previously buffered packets in arrival order, then the
    /// current one. Teardown can finalize the flow mid-replay; any
    /// remaining packets then re-enter through [`ingest`](Self::ingest)
    /// under their original arrival tags and start a fresh flow, exactly
    /// as they would have live.
    fn replay(
        &mut self,
        hash: KeyHash,
        ck: CanonicalKey,
        buffered: &[(u64, Packet)],
        current: &Packet,
        current_tag: u64,
    ) -> Option<f32> {
        let mut last = None;
        for (t, q) in buffered
            .iter()
            .map(|(t, q)| (*t, q))
            .chain(std::iter::once((current_tag, current)))
        {
            let oriented = self
                .table
                .find(hash, &ck)
                .filter(|&h| self.table[h].pending.is_none());
            last = match oriented {
                Some(h) => self.score_packet(h, q),
                None => self.ingest(q, t),
            };
        }
        last
    }

    /// Runs one packet of an oriented flow through the scoring engine and
    /// applies the teardown / length-cap policy.
    fn score_packet(&mut self, h: u32, p: &Packet) -> Option<f32> {
        let emitted = self.advance_one(h, p);
        let slot = &self.table[h];
        let torn_down = self.config.teardown_on_close
            && matches!(
                slot.tracker.tcp_state(),
                Some(TcpState::Close | TcpState::TimeWait)
            );
        if torn_down {
            self.close_flow(h, CloseReason::TcpClose);
        } else if slot.packets as usize >= self.config.max_packets_per_flow {
            self.close_flow(h, CloseReason::LengthCapped);
        }
        emitted
    }

    /// Advances one oriented flow by one packet: the slot books it (TCP
    /// tracking, byte accounting), everything neural is
    /// [`Scorer::advance`].
    fn advance_one(&mut self, h: u32, p: &Packet) -> Option<f32> {
        let mut clock = self.stages.sample();
        // Both the tracker and the features read the checksums.
        let sums = p.checksums();
        let slot = &mut self.table[h];
        let dir = slot.register(p, sums);
        let (anchors, present, packets) = slot.scoring_state();
        let flow = Flow {
            anchors,
            present,
            packets,
            resident: &mut self.resident,
            slot: h as usize,
        };
        let emitted = self.scorer.advance(flow, p, dir, sums, &mut clock);
        if let Some(err) = emitted {
            let at = self.scorer.windows(slot.packets) - 1;
            slot.window_errors.push(at, err);
        }
        emitted
    }

    /// Currently tracked (live) flows.
    pub fn live_flows(&self) -> usize {
        self.table.len()
    }

    /// Dumps every live flow-table entry (conntrack-style list), ordered
    /// by arrival tag — a stable, stream-deterministic order. O(live
    /// flows), plus one autoencoder pass per padded-window memo miss among
    /// the flows shorter than the window stack (their
    /// [`FlowEntry::score`] is their padded window's, looked up in and
    /// added to the memo); meant for operator introspection, not the hot
    /// path.
    pub fn flow_entries(&mut self) -> Vec<FlowEntry> {
        let live: Vec<u32> = self.table.live_handles().collect();
        let mut out: Vec<FlowEntry> = live.into_iter().map(|h| self.flow_entry_at(h)).collect();
        out.sort_by_key(|e| e.arrival);
        out
    }

    fn flow_entry_at(&mut self, h: u32) -> FlowEntry {
        let slot = &self.table[h];
        let pad = self
            .scorer
            .pad_error(&self.resident, h as usize, slot.packets as usize);
        let errors = match &pad {
            Some(err) => std::slice::from_ref(err),
            None => slot.window_errors.errors(self.scorer.windows(slot.packets)),
        };
        let (_, score) = score_errors(errors, self.scorer.clap.config.score_window);
        FlowEntry {
            key: slot.key,
            state: slot.tracker.tcp_state(),
            packets: slot.packets as u64,
            bytes: slot.bytes,
            first_seen: slot.first_seen,
            last_seen: slot.last_seen(),
            arrival: slot.arrival,
            score,
        }
    }

    /// The engine precision this scorer runs at.
    pub fn quant_mode(&self) -> QuantMode {
        self.scorer.gru.mode()
    }

    /// Lifetime padded-window counters: the windows of flows shorter than
    /// the stack this scorer has scored — at close and in
    /// [`flow_entries`](Self::flow_entries) — and how many of them its
    /// padded-window memo answered; each of the others took one 1-row
    /// autoencoder pass.
    pub fn pad_windows(&self) -> MemoCounts {
        self.scorer.pad_counts
    }

    /// Lifetime prefix-step counters: the GRU steps of flows' first
    /// `stack − 1` packets this scorer has taken, and how many of them its
    /// step memo answered; each of the others ran the step. Later packets'
    /// steps are never looked up.
    pub fn prefix_steps(&self) -> MemoCounts {
        self.scorer.step_counts
    }

    /// Lifetime flow-table counters (a point-in-time read of the
    /// telemetry cells — see [`telemetry`](Self::telemetry)).
    pub fn stats(&self) -> StreamStats {
        let c = self.cells.read();
        StreamStats {
            flows_peak: c.flows_peak as usize,
            evicted_idle: c.evicted_idle,
            evicted_capacity: c.evicted_capacity,
            closed_tcp: c.closed_tcp,
            length_capped: c.length_capped,
            drained: c.drained,
        }
    }

    /// The scorer's live flow-table telemetry cells: any thread holding
    /// the `Arc` can take coherent counter reads while packets flow.
    pub fn telemetry(&self) -> std::sync::Arc<StreamCells> {
        std::sync::Arc::clone(&self.cells)
    }

    /// Re-homes the flow-table counters onto caller-owned cells (the
    /// sharded engine points every worker's scorer at its hub slot).
    /// Counters already accumulated on the old cells are left behind;
    /// attach before pushing packets. The current live-flow gauge is
    /// re-published so the new cells never under-report.
    pub fn attach_telemetry(&mut self, cells: std::sync::Arc<StreamCells>) {
        self.cells = cells;
        self.cells
            .flow_opened(self.table.len() as u64, self.table.slots() as u64);
    }

    /// Routes per-stage latency samples into caller-owned histograms:
    /// from here on one packet in `clap_telemetry::hist::SAMPLE_EVERY`
    /// reads the clock at each stage boundary. A scorer that never calls
    /// this reads no clock.
    pub fn attach_stages(&mut self, hists: std::sync::Arc<StageHists>) {
        self.stages.attach(hists);
    }

    /// Estimated heap footprint of the flow table: key index, slab,
    /// resident arenas and the live flows' error logs / orient buffers.
    /// O(slab) — meant for periodic sampling, not the hot path.
    /// Excludes the pending-verdict queue (drained by the caller) and the
    /// scoring core's fixed costs, which do not grow with flows: its
    /// scratch and its two exact-bits memos (64 entries each, ≈ 87 KiB of
    /// padded windows and ≈ 40 KiB of prefix steps at the paper's sizes,
    /// whatever the number of flows).
    pub fn mem_bytes(&self) -> usize {
        self.table.heap_bytes() + self.resident.heap_bytes()
    }

    /// Takes every flow finalized since the last drain; each verdict was
    /// complete when its flow closed.
    pub fn drain_closed(&mut self) -> Vec<ClosedFlow> {
        std::mem::take(&mut self.closed)
    }

    /// Finalizes all remaining live flows, as [`CloseReason::Drained`],
    /// and returns everything closed since the last drain (end-of-capture
    /// flush).
    pub fn finish(&mut self) -> Vec<ClosedFlow> {
        let live: Vec<u32> = self.table.live_handles().collect();
        for h in live {
            self.close_flow(h, CloseReason::Drained);
        }
        self.drain_closed()
    }

    /// Discards every live flow and pending verdict without finalizing
    /// anything — the supervised sharded engine's post-panic restart. The
    /// clock and arrival counter survive (they are stream positions, not
    /// flow state), so flows started after the reset keep globally
    /// consistent tags; everything that could have been left
    /// half-mutated by an unwinding `push_tagged` is dropped wholesale.
    /// [`StreamStats`] counters survive too (they are lifetime totals).
    pub fn reset(&mut self) {
        self.table.clear();
        self.resident.clear();
        self.closed.clear();
        self.packets_since_sweep = 0;
        self.cells.live_sync(0);
    }

    /// Closes the flows whose idle timeout has run out at this sweep
    /// boundary.
    fn expire_due(&mut self) {
        let mut due = std::mem::take(&mut self.due);
        self.table.expired(self.clock, &mut due);
        for &h in &due {
            self.close_flow(h, CloseReason::IdleTimeout);
        }
        self.due = due;
    }

    /// Scores a departing flow, queues the result and recycles its slot.
    /// Mirrors the batch path exactly, including the short-connection
    /// padding rule (repeat the final profile until one full window
    /// exists).
    fn close_flow(&mut self, h: u32, reason: CloseReason) {
        // A flow evicted while still orientation-buffering scores its held
        // packets now, under the provisional (first-packet) orientation —
        // the same key the offline reassembler would use for a capture
        // with no SYN.
        if let Some(buffered) = self.table[h].pending.take() {
            for (_, q) in buffered.iter() {
                self.advance_one(h, q);
            }
        }
        let slot = &mut self.table[h];
        let packets = slot.packets as usize;
        // A flow shorter than the stack has no window yet: it is scored on
        // its padded one.
        let windows = self.scorer.windows(slot.packets);
        let mut window_errors = std::mem::take(&mut slot.window_errors).into_vec(windows);
        window_errors.extend(self.scorer.pad_error(&self.resident, h as usize, packets));
        let scored = self.scorer.verdict(window_errors, packets);
        self.closed.push(ClosedFlow {
            key: slot.key,
            packets,
            reason,
            arrival: slot.arrival,
            scored,
        });
        match reason {
            CloseReason::TcpClose => self.cells.closed_tcp(),
            CloseReason::IdleTimeout => self.cells.evicted_idle(),
            CloseReason::CapacityEvicted => self.cells.evicted_capacity(),
            CloseReason::LengthCapped => self.cells.length_capped(),
            CloseReason::Drained => self.cells.drained(),
        }
        self.table.remove(h);
        self.cells.live_sync(self.table.len() as u64);
    }
}

/// The flow key that takes `p`'s sender for the client.
fn sender_as_client(p: &Packet) -> FlowKey {
    FlowKey::new(
        Endpoint::new(p.src_addr(), p.src_port()),
        Endpoint::new(p.dst_addr(), p.dst_port()),
    )
    .with_proto(p.transport.protocol_number())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureVector;
    use crate::pipeline::ClapConfig;
    use net_packet::{Connection, Ipv4Header, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;
    use std::sync::OnceLock;

    /// One trained model shared across tests (training dominates runtime).
    fn model() -> &'static Clap {
        static MODEL: OnceLock<Clap> = OnceLock::new();
        MODEL.get_or_init(|| {
            let benign = traffic_gen::dataset(91, 20);
            let mut cfg = ClapConfig::ci();
            cfg.ae.epochs = 8;
            Clap::train(&benign, &cfg).0
        })
    }

    fn no_teardown() -> StreamConfig {
        StreamConfig {
            teardown_on_close: false,
            ..StreamConfig::default()
        }
    }

    /// The default is a constant of the source, not of the process: f32
    /// engines, per-packet scoring. A caller that wants int8 writes it in
    /// the config it builds.
    #[test]
    fn default_config_is_f32_per_packet() {
        let cfg = StreamConfig::default();
        assert_eq!(cfg.quant, QuantMode::Off);
        assert_eq!(cfg.microbatch, 0);
        let scorer = model().stream_scorer();
        assert_eq!(scorer.quant_mode(), QuantMode::Off);
        assert_eq!(model().scorer().quant_mode(), QuantMode::Off);
    }

    fn assert_scored_eq(stream: &ScoredConnection, batch: &ScoredConnection) {
        assert_eq!(
            stream.score.to_bits(),
            batch.score.to_bits(),
            "score drift: stream {} vs batch {}",
            stream.score,
            batch.score
        );
        assert_eq!(stream.peak_window, batch.peak_window);
        assert_eq!(stream.peak_packet, batch.peak_packet);
        assert_eq!(stream.window_errors.len(), batch.window_errors.len());
        for (s, b) in stream.window_errors.iter().zip(&batch.window_errors) {
            assert_eq!(s.to_bits(), b.to_bits(), "window error drift: {s} vs {b}");
        }
    }

    /// The headline guarantee: packets fed one at a time — with flows
    /// interleaved round-robin through ONE scorer — produce the same
    /// scores as offline batch scoring of each complete connection.
    #[test]
    fn interleaved_streaming_matches_batch() {
        let clap = model();
        let corpus = traffic_gen::dataset(911, 12);
        let mut scorer = clap.stream_scorer_with(no_teardown());
        let longest = corpus.iter().map(Connection::len).max().unwrap();
        for i in 0..longest {
            for conn in &corpus {
                if let Some(p) = conn.packets.get(i) {
                    scorer.push(p);
                }
            }
        }
        let closed = scorer.finish();
        assert_eq!(closed.len(), corpus.len(), "one flow per connection");
        for conn in &corpus {
            let flow = closed
                .iter()
                .find(|c| c.key == conn.key)
                .expect("flow key matches connection key");
            assert_eq!(flow.packets, conn.len());
            assert_eq!(flow.reason, CloseReason::Drained);
            assert_scored_eq(&flow.scored, &clap.score_connection(conn));
        }
    }

    /// An orderly close (or RST) finalizes the flow inline, and the score
    /// still matches the batch path because teardown lands on the last
    /// packet of the capture.
    #[test]
    fn tcp_teardown_finalizes_inline_with_batch_score() {
        let clap = model();
        let corpus = traffic_gen::dataset(913, 10);
        let mut scorer = clap.stream_scorer();
        for conn in &corpus {
            for p in &conn.packets {
                scorer.push(p);
            }
        }
        let inline = scorer.drain_closed();
        assert!(
            !inline.is_empty(),
            "generated traffic contains orderly closes"
        );
        for flow in &inline {
            assert_eq!(flow.reason, CloseReason::TcpClose);
            let conn = corpus
                .iter()
                .find(|c| c.key == flow.key && c.len() == flow.packets)
                .expect("teardown flow corresponds to a full connection");
            assert_scored_eq(&flow.scored, &clap.score_connection(conn));
        }
    }

    /// Flows shorter than the stack depth are padded exactly like the
    /// batch path (repeat the last profile, emit one window).
    #[test]
    fn short_flow_padding_matches_batch() {
        let clap = model();
        let conn = &traffic_gen::dataset(917, 1)[0];
        for take in 1..clap.config.stack {
            let mut truncated = Connection::new(conn.key);
            truncated.packets = conn.packets[..take].to_vec();
            let mut scorer = clap.stream_scorer_with(no_teardown());
            for p in &truncated.packets {
                assert_eq!(scorer.push(p), None, "no window before a full stack");
            }
            let closed = scorer.finish();
            assert_eq!(closed.len(), 1);
            assert_eq!(closed[0].scored.window_errors.len(), 1);
            assert_scored_eq(&closed[0].scored, &clap.score_connection(&truncated));
        }
    }

    fn raw_packet(src: (u8, u16), dst: (u8, u16), ts: f64) -> Packet {
        let ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, src.0),
            Ipv4Addr::new(10, 0, 0, dst.0),
            64,
        );
        let mut tcp = TcpHeader::new(src.1, dst.1, 1000, 0);
        tcp.flags = TcpFlags::SYN;
        Packet::new(ts, ip, tcp, Vec::new())
    }

    /// A capture that opens mid-flow (server→client data first) followed
    /// by the client's pure SYN: the orient buffer lets streaming adopt
    /// the SYN sender as client, so scores match the offline reassembler's
    /// re-oriented connection exactly.
    #[test]
    fn late_syn_reorients_like_offline_reassembler() {
        let clap = model();
        let conn = &traffic_gen::dataset(919, 1)[0];
        // Find a genuine server→client packet to put in front.
        let s2c = (0..conn.len())
            .find(|&i| conn.direction(i) == net_packet::Direction::ServerToClient)
            .expect("generated connection has server traffic");
        let mut stream_pkts = vec![conn.packets[s2c].clone()];
        stream_pkts.extend(
            conn.packets
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != s2c)
                .map(|(_, p)| p.clone()),
        );
        // `stream_pkts[1]` is now the client's pure SYN (packet 0 of the
        // generated handshake).
        let offline = net_packet::assemble_connections(&stream_pkts);
        assert_eq!(offline.len(), 1);
        assert_eq!(
            offline[0].key.client, conn.key.client,
            "offline reassembler re-orients on the late SYN"
        );

        let mut scorer = clap.stream_scorer_with(no_teardown());
        for p in &stream_pkts {
            scorer.push(p);
        }
        let closed = scorer.finish();
        assert_eq!(closed.len(), 1);
        assert_eq!(
            closed[0].key, offline[0].key,
            "streaming must adopt the SYN sender as client"
        );
        assert_scored_eq(&closed[0].scored, &clap.score_connection(&offline[0]));
    }

    /// No SYN ever arrives: after `orient_buffer` packets the flow flushes
    /// under first-packet orientation — which is also what the offline
    /// reassembler pins for a SYN-less capture, so scores still match.
    #[test]
    fn syn_less_capture_flushes_with_first_packet_orientation() {
        let clap = model();
        let conn = &traffic_gen::dataset(921, 1)[0];
        // Drop the handshake: start mid-connection, no pure SYN anywhere.
        let start = conn
            .first_index_after_handshake()
            .unwrap_or(3)
            .min(conn.len() - 1);
        let stream_pkts: Vec<_> = conn.packets[start..].to_vec();
        assert!(
            stream_pkts
                .iter()
                .all(|p| !p.tcp_flags().contains(TcpFlags::SYN)
                    || p.tcp_flags().contains(TcpFlags::ACK)),
            "test premise: no pure SYN in the tail"
        );
        let offline = net_packet::assemble_connections(&stream_pkts);
        assert_eq!(offline.len(), 1);

        let mut scorer = clap.stream_scorer_with(no_teardown());
        for p in &stream_pkts {
            scorer.push(p);
        }
        let closed = scorer.finish();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].key, offline[0].key);
        assert_eq!(closed[0].packets, stream_pkts.len());
        assert_scored_eq(&closed[0].scored, &clap.score_connection(&offline[0]));
    }

    /// `orient_buffer: 0` restores PR 2 behavior: orientation pinned by
    /// the first packet, a later SYN changes nothing.
    #[test]
    fn zero_orient_buffer_pins_first_packet() {
        let clap = model();
        let mut cfg = no_teardown();
        cfg.orient_buffer = 0;
        let mut scorer = clap.stream_scorer_with(cfg);
        // Server-ish side speaks first, then the "client" SYNs.
        scorer.push(&raw_packet_flags((2, 80), (1, 1111), TcpFlags::ACK, 0.0));
        scorer.push(&raw_packet_flags((1, 1111), (2, 80), TcpFlags::SYN, 0.1));
        let closed = scorer.finish();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].key.client.port, 80, "first packet stays client");
    }

    /// Flows evicted while still orientation-buffering must score their
    /// held packets before finalization — no packet may vanish.
    #[test]
    fn pending_flows_score_buffered_packets_on_finish() {
        let clap = model();
        let mut scorer = clap.stream_scorer_with(no_teardown());
        // Two non-SYN packets: still inside the orient buffer at finish.
        scorer.push(&raw_packet_flags((2, 80), (1, 1111), TcpFlags::ACK, 0.0));
        scorer.push(&raw_packet_flags((2, 80), (1, 1111), TcpFlags::ACK, 0.1));
        let closed = scorer.finish();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].packets, 2);
        assert_eq!(closed[0].scored.window_errors.len(), 1, "padded window");
        assert!(closed[0].scored.score.is_finite());
    }

    /// A UDP flow has no SYN to wait for, so it opens no orient buffer:
    /// `push` returns each window error as the packet completing it
    /// arrives, and the closed flow is bitwise what first-packet pinning
    /// (`orient_buffer: 0`) and the batch path give — the verdict a
    /// buffered flow flushed unchanged.
    #[test]
    fn udp_flows_score_from_their_first_packet() {
        let clap = model();
        let stack = clap.config.stack;
        let conn = traffic_gen::mixed_dataset(923, 40)
            .into_iter()
            .find(|c| c.packets[0].transport.udp().is_some() && c.len() > stack + 3)
            .expect("the mixed corpus holds multi-packet UDP flows");
        let batch = clap.score_connection(&conn);
        let mut closed = Vec::new();
        for orient_buffer in [StreamConfig::default().orient_buffer, 0] {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                orient_buffer,
                ..no_teardown()
            });
            for (i, p) in conn.packets.iter().enumerate() {
                let want = (i + 1 >= stack).then(|| batch.window_errors[i + 1 - stack]);
                assert_eq!(
                    scorer.push(p).map(f32::to_bits),
                    want.map(f32::to_bits),
                    "orient_buffer {orient_buffer}, packet {i}"
                );
            }
            let flow = scorer.finish().pop().expect("one flow");
            assert_scored_eq(&flow.scored, &batch);
            closed.push(flow);
        }
        let id = |c: &ClosedFlow| (c.key, c.packets, c.reason, c.arrival);
        assert_eq!(id(&closed[0]), id(&closed[1]));
        assert_scored_eq(&closed[0].scored, &closed[1].scored);
    }

    fn raw_packet_flags(src: (u8, u16), dst: (u8, u16), flags: TcpFlags, ts: f64) -> Packet {
        let ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, src.0),
            Ipv4Addr::new(10, 0, 0, dst.0),
            64,
        );
        let mut tcp = TcpHeader::new(src.1, dst.1, 1000, 0);
        tcp.flags = flags;
        Packet::new(ts, ip, tcp, Vec::new())
    }

    /// Plain `push` tags flows with the scorer's own packet counter;
    /// `push_tagged` records the caller's index — including through a
    /// length-cap restart, where the new incarnation carries the tag of
    /// the packet that opened it.
    #[test]
    fn arrival_tags_follow_flow_incarnations() {
        let clap = model();
        let mut scorer = clap.stream_scorer_with(StreamConfig {
            max_packets_per_flow: 3,
            teardown_on_close: false,
            ..StreamConfig::default()
        });
        // Flow A at stream positions 0..3 (capped), restart at 3..;
        // flow B interleaved at its own positions via explicit tags.
        for t in 0..5u64 {
            scorer.push_tagged(&raw_packet((1, 1111), (2, 80), f64::from(t as u32)), t * 10);
        }
        let capped = scorer.drain_closed();
        assert_eq!(capped.len(), 1);
        assert_eq!(capped[0].arrival, 0, "first incarnation opens at tag 0");
        let rest = scorer.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(
            rest[0].arrival, 30,
            "restarted incarnation carries its opening packet's tag"
        );

        // Plain push: the scorer's own 0-based counter.
        let mut plain = clap.stream_scorer_with(no_teardown());
        plain.push(&raw_packet((1, 1111), (2, 80), 0.0));
        plain.push(&raw_packet((3, 2222), (4, 80), 0.1));
        let closed = plain.finish();
        let mut arrivals: Vec<u64> = closed.iter().map(|c| c.arrival).collect();
        arrivals.sort_unstable();
        assert_eq!(arrivals, vec![0, 1]);
    }

    #[test]
    fn idle_flows_are_swept() {
        let clap = model();
        for eviction in [EvictionMode::Wheel, EvictionMode::Sweep] {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                idle_timeout: 1.0,
                sweep_interval: 1,
                teardown_on_close: false,
                eviction,
                ..StreamConfig::default()
            });
            scorer.push(&raw_packet((1, 1111), (2, 80), 0.0));
            scorer.push(&raw_packet((3, 2222), (4, 80), 0.5));
            assert_eq!(scorer.live_flows(), 2);
            // 10s later: both earlier flows are past the idle deadline.
            scorer.push(&raw_packet((5, 3333), (6, 80), 10.0));
            assert_eq!(scorer.live_flows(), 1, "{eviction:?}");
            let closed = scorer.drain_closed();
            assert_eq!(closed.len(), 2);
            assert!(closed.iter().all(|c| c.reason == CloseReason::IdleTimeout));
            assert!(closed.iter().all(|c| c.packets == 1));
            assert_eq!(scorer.stats().evicted_idle, 2);
        }
    }

    #[test]
    fn flow_table_capacity_is_bounded() {
        let clap = model();
        let mut scorer = clap.stream_scorer_with(StreamConfig {
            max_flows: 2,
            teardown_on_close: false,
            ..StreamConfig::default()
        });
        for i in 0..5u8 {
            scorer.push(&raw_packet(
                (i + 1, 4000 + u16::from(i)),
                (100, 80),
                f64::from(i),
            ));
            assert!(scorer.live_flows() <= 2, "table exceeded max_flows");
        }
        let closed = scorer.drain_closed();
        assert_eq!(closed.len(), 3);
        assert!(closed
            .iter()
            .all(|c| c.reason == CloseReason::CapacityEvicted));
        let stats = scorer.stats();
        assert_eq!(stats.evicted_capacity, 3);
        assert_eq!(stats.flows_peak, 2, "slab never outgrew max_flows");
    }

    /// A full table gives up its stalest flow wherever that sits in the
    /// slab (here past the first eight slots, all of them fresher).
    #[test]
    fn capacity_eviction_closes_the_stalest_flow() {
        let clap = model();
        let mut scorer = clap.stream_scorer_with(StreamConfig {
            max_flows: 32,
            teardown_on_close: false,
            ..StreamConfig::default()
        });
        let flow = |i: u8, at: f64| raw_packet((i + 1, 4000 + u16::from(i)), (100, 80), at);
        for i in 0..32u8 {
            scorer.push(&flow(i, f64::from(i)));
        }
        for i in 0..20u8 {
            scorer.push(&flow(i, 40.0 + f64::from(i)));
        }
        scorer.push(&flow(32, 60.0));
        let closed = scorer.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].reason, CloseReason::CapacityEvicted);
        assert_eq!(closed[0].arrival, 20, "flow 20 was last seen at t = 20");
        assert_eq!(scorer.live_flows(), 32);
    }

    #[test]
    fn length_capped_flows_restart() {
        let clap = model();
        let mut scorer = clap.stream_scorer_with(StreamConfig {
            max_packets_per_flow: 5,
            teardown_on_close: false,
            ..StreamConfig::default()
        });
        for t in 0..12 {
            scorer.push(&raw_packet((1, 1111), (2, 80), f64::from(t)));
        }
        let capped = scorer.drain_closed();
        assert_eq!(capped.len(), 2, "5+5 packets hit the cap twice");
        assert!(capped.iter().all(|c| c.reason == CloseReason::LengthCapped));
        assert!(capped.iter().all(|c| c.packets == 5));
        assert_eq!(scorer.live_flows(), 1, "remaining 2 packets live on");
        let rest = scorer.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].packets, 2);
    }

    /// A recycled slab slot must carry nothing of its previous occupant:
    /// run the same connection through a fresh scorer and through one
    /// whose only slot previously held a different, finalized flow — the
    /// scores must be identical (hidden state, ring and error log all
    /// reset), at both resident precisions.
    #[test]
    fn recycled_slot_leaks_no_prior_state() {
        let clap = model();
        let corpus = traffic_gen::dataset(923, 2);
        for resident in [ResidentMode::F32, ResidentMode::Int8] {
            let cfg = StreamConfig {
                resident,
                teardown_on_close: false,
                max_packets_per_flow: usize::MAX,
                ..StreamConfig::default()
            };
            let mut fresh = clap.stream_scorer_with(cfg.clone());
            for p in &corpus[1].packets {
                fresh.push(p);
            }
            let want = fresh.finish();
            assert_eq!(want.len(), 1);

            let mut reused = clap.stream_scorer_with(cfg);
            // Occupy slot 0 with connection 0, finalize it (slot goes to
            // the free list), then run connection 1 through the recycled
            // slot.
            for p in &corpus[0].packets {
                reused.push(p);
            }
            assert_eq!(reused.finish().len(), 1);
            assert_eq!(reused.stats().flows_peak, 1, "one slot, recycled");
            for p in &corpus[1].packets {
                reused.push(p);
            }
            let got = reused.finish();
            assert_eq!(got.len(), 1);
            assert_eq!(reused.stats().flows_peak, 1, "slot was recycled");
            assert_eq!(got[0].scored.window_errors, want[0].scored.window_errors);
            assert_eq!(got[0].scored.score, want[0].scored.score);
        }
    }

    /// Resident int8 state drifts from f32 but stays bounded and sane on
    /// real traffic (the calibrated bound lives in the proptest suite).
    #[test]
    fn resident_int8_scores_are_finite_and_close() {
        let clap = model();
        let corpus = traffic_gen::dataset(929, 6);
        let run = |resident| {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                resident,
                teardown_on_close: false,
                ..StreamConfig::default()
            });
            for conn in &corpus {
                for p in &conn.packets {
                    scorer.push(p);
                }
            }
            let mut closed = scorer.finish();
            closed.sort_by_key(|c| c.arrival);
            closed
        };
        let exact = run(ResidentMode::F32);
        let compact = run(ResidentMode::Int8);
        assert_eq!(exact.len(), compact.len());
        for (e, c) in exact.iter().zip(&compact) {
            assert_eq!(e.key, c.key);
            assert_eq!(e.packets, c.packets);
            assert!(c.scored.score.is_finite());
            let rel = (e.scored.score - c.scored.score).abs() / e.scored.score.abs().max(1e-3);
            assert!(
                rel < 0.25,
                "resident drift too large: f32 {} vs int8 {}",
                e.scored.score,
                c.scored.score
            );
        }
    }

    /// `push` returns each window error as the packet completing it
    /// arrives: over interleaved benign and attacked flows, a flow's
    /// `Some` returns, in order, are its closed verdict's window errors
    /// bit for bit — at f32, at int8 weights and at int8 weights with int8
    /// resident state.
    #[test]
    fn push_returns_what_the_closed_flow_logs() {
        let clap = model();
        let mut corpus = traffic_gen::dataset(937, 10);
        let strategy = &dpi_attacks::registry()[0];
        let base = traffic_gen::dataset(938, 3);
        let attacked = dpi_attacks::build_adversarial_set(strategy, &base, 7);
        corpus.extend(attacked.into_iter().map(|r| r.connection));
        let longest = corpus.iter().map(Connection::len).max().unwrap();
        for (quant, resident) in [
            (QuantMode::Off, ResidentMode::F32),
            (QuantMode::Int8, ResidentMode::F32),
            (QuantMode::Int8, ResidentMode::Int8),
        ] {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                quant,
                resident,
                teardown_on_close: false,
                ..StreamConfig::default()
            });
            let mut returned: Vec<Vec<f32>> = vec![Vec::new(); corpus.len()];
            for i in 0..longest {
                for (c, conn) in corpus.iter().enumerate() {
                    if let Some(err) = conn.packets.get(i).and_then(|p| scorer.push(p)) {
                        returned[c].push(err);
                    }
                }
            }
            let closed = scorer.finish();
            assert_eq!(closed.len(), corpus.len(), "{quant:?}, {resident:?}");
            let bits = |errs: &[f32]| errs.iter().map(|e| e.to_bits()).collect::<Vec<u32>>();
            for (conn, got) in corpus.iter().zip(&returned) {
                let flow = closed.iter().find(|c| c.key == conn.key).unwrap();
                assert!(conn.len() < clap.config.stack || !got.is_empty());
                assert_eq!(
                    bits(got),
                    bits(&flow.scored.window_errors),
                    "{quant:?}, {resident:?}"
                );
            }
        }
    }

    /// A flow's error log is a boxed slice grown like a `Vec`, whose used
    /// length the scorer derives from the flow's packets. Flows on each
    /// side of every growth boundary (0 → 4 → 8 entries, and 32 → 64) —
    /// and the padded short ones — close with the offline scorer's
    /// errors, bit for bit, at both resident precisions: as many as the
    /// flow has windows, on the allocation a `Vec` pushed as many times
    /// would hold. One scorer per precision, so every flow after the
    /// first reuses the slot (and log) the one before it left.
    #[test]
    fn closed_error_log_matches_the_offline_scorer_across_growth() {
        let clap = model();
        let stack = clap.config.stack;
        let conn = traffic_gen::dataset(941, 20)
            .into_iter()
            .find(|c| c.len() >= 35)
            .expect("a connection of 35 packets");
        for resident in [ResidentMode::F32, ResidentMode::Int8] {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                resident,
                teardown_on_close: false,
                ..StreamConfig::default()
            });
            let mut offline = clap.scorer_from_engines(
                GruEngine::from_packed(clap.rnn.packed(), QuantMode::Off),
                AeEngine::from_model(&clap.ae, QuantMode::Off),
                resident,
            );
            for take in [1, 2, 3, 4, 5, 6, 7, 34, 35] {
                let mut flow = Connection::new(conn.key);
                flow.packets = conn.packets[..take].to_vec();
                for p in &flow.packets {
                    scorer.push(p);
                }
                let closed = scorer.finish();
                assert_eq!(closed.len(), 1);
                let got = &closed[0].scored.window_errors;
                let want = offline.score_connection(&flow).window_errors;
                let at = format!("{resident:?}, {take} packets");
                let windows = take.max(stack) + 1 - stack;
                assert_eq!(got.len(), windows, "{at}");
                let bits = |e: &[f32]| e.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(got), bits(&want), "{at}");
                let mut pushed = Vec::new();
                for w in 0..windows {
                    pushed.push(w as f32);
                }
                assert_eq!(got.capacity(), pushed.capacity(), "{at}");
            }
            assert_eq!(scorer.stats().flows_peak, 1, "one slot, recycled");
        }
    }

    /// The configs of deleted modes — a cross-flow micro-batch capacity
    /// and a TIME_WAIT linger — each with the panic message that names
    /// its field.
    fn refused_configs() -> [(StreamConfig, &'static str); 2] {
        [
            (
                StreamConfig {
                    microbatch: 2,
                    ..StreamConfig::default()
                },
                "StreamConfig::microbatch = 2",
            ),
            (
                StreamConfig {
                    time_wait: 1.0,
                    ..StreamConfig::default()
                },
                "StreamConfig::time_wait = 1",
            ),
        ]
    }

    /// Runs `build`, which must panic with a message containing `want`.
    fn assert_refused(build: impl FnOnce(), want: &str) {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .expect_err("the config must be refused");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains(want), "{message:?} does not name {want:?}");
    }

    /// A deleted mode's config is refused, not ignored.
    #[test]
    fn a_microbatch_stream_config_is_refused() {
        for (config, want) in refused_configs() {
            assert_refused(|| drop(model().stream_scorer_with(config)), want);
        }
    }

    /// The sharded engine refuses it on the caller's thread, before any
    /// worker starts.
    #[test]
    fn a_microbatch_shard_config_is_refused() {
        for (stream, want) in refused_configs() {
            let config = crate::ShardConfig {
                stream,
                ..crate::ShardConfig::default()
            };
            assert_refused(|| drop(model().sharded_scorer_with(config)), want);
        }
    }

    /// A scanner's probe `i`: a pure SYN, and the target's RST|ACK.
    fn syn_then_rst(i: u8, ts: f64) -> [Packet; 2] {
        let (client, server) = (Ipv4Addr::new(10, 1, 0, i), Ipv4Addr::new(10, 2, 0, 1));
        let port = 40_000 + u16::from(i);
        let mut syn = TcpHeader::new(port, 443, 1000, 0);
        syn.flags = TcpFlags::SYN;
        let mut rst = TcpHeader::new(443, port, 0, 1001);
        rst.flags = TcpFlags::RST | TcpFlags::ACK;
        [
            Packet::new(ts, Ipv4Header::new(client, server, 64), syn, Vec::new()),
            Packet::new(
                ts + 0.5,
                Ipv4Header::new(server, client, 64),
                rst,
                Vec::new(),
            ),
        ]
    }

    /// A closing flow's padded window is scored at close, so *when* a
    /// caller drains changes nothing. 1..=9 two-packet flows closed by
    /// RST, then one unanswered SYN left for `finish`, drained after every
    /// push, every third push or only at `finish`: the same keys, packets,
    /// reasons, order and score bits, each flow's equal to scoring its
    /// connection offline. A `reset` drops the queued verdicts.
    #[test]
    fn pads_score_the_same_whenever_drained() {
        let clap = model();
        let mut offline = clap.scorer();
        for n in 1..=9u8 {
            let probes: Vec<[Packet; 2]> = (0..n).map(|i| syn_then_rst(i, f64::from(i))).collect();
            let unanswered = syn_then_rst(100, 20.0);
            let mut stream: Vec<&Packet> = probes.iter().map(|p| &p[0]).collect();
            stream.extend(probes.iter().map(|p| &p[1]));
            stream.push(&unanswered[0]);
            let run = |every: usize| {
                let mut scorer = clap.stream_scorer();
                let mut out = Vec::new();
                for (k, p) in stream.iter().enumerate() {
                    scorer.push(p);
                    if (k + 1) % every == 0 {
                        out.extend(scorer.drain_closed());
                    }
                }
                out.extend(scorer.finish());
                out.iter()
                    .map(|c| (c.key, c.packets, c.reason, c.scored.score.to_bits()))
                    .collect::<Vec<_>>()
            };
            let at_finish = run(usize::MAX);
            assert_eq!(at_finish, run(1), "{n} flows, drained every push");
            assert_eq!(at_finish, run(3), "{n} flows, drained every 3 pushes");
            assert_eq!(at_finish.len(), usize::from(n) + 1);
            let expected = probes
                .iter()
                .map(|p| (&p[..], CloseReason::TcpClose))
                .chain([(&unanswered[..1], CloseReason::Drained)]);
            for (&(key, packets, reason, score), (pkts, want_reason)) in
                at_finish.iter().zip(expected)
            {
                let mut conn = Connection::new(key);
                conn.packets = pkts.to_vec();
                assert_eq!((packets, reason), (pkts.len(), want_reason));
                assert_eq!(score, offline.score_connection(&conn).score.to_bits());
            }
        }

        let mut scorer = clap.stream_scorer();
        for i in 0..3 {
            for p in &syn_then_rst(i, f64::from(i)) {
                scorer.push(p);
            }
        }
        scorer.reset();
        assert!(scorer.drain_closed().is_empty());
        let fresh = syn_then_rst(7, 10.0);
        for p in &fresh {
            scorer.push(p);
        }
        let closed = scorer.finish();
        assert_eq!(closed.len(), 1);
        let mut conn = Connection::new(closed[0].key);
        conn.packets = fresh.to_vec();
        assert_scored_eq(&closed[0].scored, &offline.score_connection(&conn));
    }

    /// A verdict is final when it is queued: three SYN → RST|ACK probes,
    /// each answered after a delay of its own so that they pad to distinct
    /// windows, closed and not drained, already hold their one padded
    /// window's error and the score bits of scoring them offline.
    #[test]
    fn a_queued_verdict_is_final() {
        let clap = model();
        let mut offline = clap.scorer();
        let mut scorer = clap.stream_scorer();
        let probes: Vec<[Packet; 2]> = (0..3u8)
            .map(|i| {
                let [syn, mut rst] = syn_then_rst(i, f64::from(i));
                rst.timestamp = syn.timestamp + 0.25 * f64::from(i + 1);
                [syn, rst]
            })
            .collect();
        for p in probes.iter().flatten() {
            scorer.push(p);
        }
        assert_eq!(scorer.closed.len(), probes.len());
        for (flow, packets) in scorer.closed.iter().zip(&probes) {
            assert_eq!(flow.scored.window_errors.len(), 1);
            let mut conn = Connection::new(flow.key);
            conn.packets = packets.to_vec();
            assert_scored_eq(&flow.scored, &offline.score_connection(&conn));
        }
        assert_eq!(
            scorer.pad_windows(),
            MemoCounts {
                scored: 3,
                memo_hits: 0
            },
            "three distinct windows"
        );
    }

    /// A live flow shorter than the stack has no window error yet; its
    /// `FlowEntry::score` is the padded window's it would close with — five
    /// 1-packet flows and a 2-packet one, in slots that earlier flows'
    /// profiles left behind. A flow still orientation-buffering has scored
    /// nothing and reports 0.
    #[test]
    fn flow_entries_score_short_flows_like_closing_them() {
        let clap = model();
        let mut scorer = clap.stream_scorer();
        // Six flows come and go, leaving their profiles in the slots the
        // flows under test take over.
        for i in 0..6u8 {
            for p in &syn_then_rst(i, f64::from(i)) {
                scorer.push(p);
            }
        }
        assert_eq!(scorer.finish().len(), 6);
        for i in 0..5u8 {
            scorer.push(&raw_packet_flags(
                (i + 1, 1000),
                (50, 80),
                TcpFlags::SYN,
                10.0,
            ));
        }
        scorer.push(&raw_packet_flags((9, 2000), (50, 80), TcpFlags::SYN, 10.1));
        let synack = TcpFlags::SYN | TcpFlags::ACK;
        scorer.push(&raw_packet_flags((50, 80), (9, 2000), synack, 10.2));
        scorer.push(&raw_packet_flags((60, 80), (70, 3000), TcpFlags::ACK, 10.3));
        let live = scorer.flow_entries();
        assert_eq!(live.len(), 7);
        let buffering = live.iter().find(|e| e.key.client.port == 80).unwrap();
        assert_eq!((buffering.packets, buffering.score), (0, 0.0));
        let closed = scorer.finish();
        for entry in live.iter().filter(|e| e.packets > 0) {
            let flow = closed.iter().find(|c| c.key == entry.key).unwrap();
            assert_eq!(entry.packets as usize, flow.packets);
            assert!(entry.score > 0.0);
            assert_eq!(entry.score.to_bits(), flow.scored.score.to_bits());
        }
    }

    /// A sweep boundary after a clock jump of seconds, hours or days
    /// evicts exactly the idle flows, matching the sweep reference.
    #[test]
    fn idle_expiry_is_exact_after_multi_hour_clock_jumps() {
        let clap = model();
        let run = |eviction| {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                idle_timeout: 50.0,
                sweep_interval: 1,
                teardown_on_close: false,
                eviction,
                ..StreamConfig::default()
            });
            // Flows opening at exponentially spaced times; each new push
            // expires some prefix of the earlier ones.
            for (i, ts) in [0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
                .into_iter()
                .enumerate()
            {
                let i = i as u8;
                scorer.push(&raw_packet((i + 1, 1000 + u16::from(i)), (99, 80), ts));
            }
            let mut closed: Vec<(FlowKey, u64)> = scorer
                .finish()
                .into_iter()
                .map(|c| (c.key, c.arrival))
                .collect();
            closed.sort_by_key(|&(_, a)| a);
            closed
        };
        assert_eq!(run(EvictionMode::Wheel), run(EvictionMode::Sweep));
    }

    /// A templated scan: probe `i` from its own 4-tuple — a pure SYN, and
    /// when `answered` the target's RST|ACK half a second later.
    fn probe(i: u16, answered: bool, ts: f64) -> Vec<Packet> {
        let [a, b] = i.to_be_bytes();
        let (client, server) = (Ipv4Addr::new(10, 3, a, b), Ipv4Addr::new(10, 4, 0, 1));
        let port = 20_000 + i;
        let mut syn = TcpHeader::new(port, 443, 1000 + u32::from(i), 0);
        syn.flags = TcpFlags::SYN;
        let mut packets = vec![Packet::new(
            ts,
            Ipv4Header::new(client, server, 64),
            syn,
            Vec::new(),
        )];
        if answered {
            let mut rst = TcpHeader::new(443, port, 0, 1001 + u32::from(i));
            rst.flags = TcpFlags::RST | TcpFlags::ACK;
            let ip = Ipv4Header::new(server, client, 64);
            packets.push(Packet::new(ts + 0.5, ip, rst, Vec::new()));
        }
        packets
    }

    /// Short flows no template repeats: one or two UDP datagrams, or a SYN
    /// carrying data, each with a payload length of its own.
    fn distinct_short_flows(ts: f64) -> Vec<Vec<Packet>> {
        let host = |i: u8| Ipv4Addr::new(10, 5, 0, i);
        let udp = |i: u8, len: usize, dt: f64| {
            let ip = Ipv4Header::new(host(i), Ipv4Addr::new(10, 6, 0, 1), 64);
            let udp = net_packet::UdpHeader::new(30_000 + u16::from(i), 53);
            Packet::new_udp(ts + dt, ip, udp, vec![0x42; len])
        };
        let syn_data = |i: u8, len: usize| {
            let ip = Ipv4Header::new(host(i), Ipv4Addr::new(10, 6, 0, 2), 64);
            let mut tcp = TcpHeader::new(31_000 + u16::from(i), 80, 5, 0);
            tcp.flags = TcpFlags::SYN;
            Packet::new(ts, ip, tcp, vec![0x17; len])
        };
        vec![
            vec![udp(1, 12, 0.0)],
            vec![udp(2, 300, 0.0)],
            vec![udp(3, 60, 0.0), udp(3, 700, 0.2)],
            vec![syn_data(4, 20)],
            vec![syn_data(5, 500)],
        ]
    }

    /// A scan's probes pad to one of two windows bit for bit — SYN-only and
    /// SYN → RST|ACK — so after the first of each, the memo answers them.
    /// Interleaved with distinct short flows and long benign ones, every
    /// verdict is bitwise a fresh scorer's for that flow alone (a fresh
    /// `ClapScorer`, or a fresh stream scorer where the resident state is
    /// int8, which a `ClapScorer` never keeps), and the memo answers every
    /// padded window but the first of each distinct one: at f32, at int8
    /// weights and at int8 resident state. Likewise each flow's first
    /// `stack − 1` GRU steps — no later one — are looked up in the step
    /// memo, which answers all but the first step of each distinct prefix.
    #[test]
    fn templated_scan_pads_hit_the_memo_and_score_like_fresh_flows() {
        let clap = model();
        let stack = clap.config.stack;
        let long = traffic_gen::dataset(931, 3);
        let mut flows: Vec<Vec<Packet>> = long.iter().map(|c| c.packets.clone()).collect();
        let short = distinct_short_flows(1.0);
        flows.extend(short.iter().cloned());
        flows.extend((0..40u16).map(|i| probe(i, i % 3 != 0, 0.1 * f64::from(i))));
        // Round-robin, one packet of each flow at a time.
        let longest = flows.iter().map(Vec::len).max().unwrap();
        let stream: Vec<&Packet> = (0..longest)
            .flat_map(|k| flows.iter().filter_map(move |f| f.get(k)))
            .collect();
        let packets_of = |key: &FlowKey| {
            let key = CanonicalKey::of_key(key);
            flows
                .iter()
                .find(|f| {
                    let c = sender_as_client(&f[0]);
                    CanonicalKey::of_key(&c) == key
                })
                .expect("a flow of the stream")
        };
        // A flow's prefixes: the GRU inputs of its first one, …,
        // `stack − 1` packets, each a step the memo is asked for.
        let mut prefixes: Vec<Vec<u32>> = Vec::new();
        for f in &flows {
            let mut conn = Connection::new(sender_as_client(&f[0]));
            conn.packets = f.clone();
            let mut extractor = crate::FeatureExtractor::new();
            let mut fv = FeatureVector {
                base: Vec::new(),
                raw: Vec::new(),
                equiv_ok: false,
            };
            let mut prefix = Vec::new();
            for (i, p) in f.iter().enumerate().take(stack - 1) {
                extractor.push_into(p, conn.direction(i), &mut fv);
                prefix.extend(fv.base.iter().map(|v| v.to_bits()));
                prefixes.push(prefix.clone());
            }
        }
        let steps = prefixes.len() as u64;
        let want: usize = flows.iter().map(|f| f.len().min(stack - 1)).sum();
        assert_eq!(steps, want as u64);
        prefixes.sort_unstable();
        prefixes.dedup();
        for (quant, resident) in [
            (QuantMode::Off, ResidentMode::F32),
            (QuantMode::Int8, ResidentMode::F32),
            (QuantMode::Int8, ResidentMode::Int8),
        ] {
            let config = StreamConfig {
                quant,
                resident,
                ..StreamConfig::default()
            };
            let mut scorer = clap.stream_scorer_with(config.clone());
            for p in &stream {
                scorer.push(p);
            }
            let closed = scorer.finish();
            assert_eq!(closed.len(), flows.len());
            for flow in &closed {
                let packets = packets_of(&flow.key);
                assert_eq!(flow.packets, packets.len());
                let fresh = if resident == ResidentMode::F32 {
                    let mut conn = Connection::new(flow.key);
                    conn.packets = packets.clone();
                    clap.scorer_with(quant).score_connection(&conn)
                } else {
                    let mut alone = clap.stream_scorer_with(config.clone());
                    for p in packets {
                        alone.push(p);
                    }
                    let mut closed = alone.finish();
                    assert_eq!(closed.len(), 1);
                    closed.pop().unwrap().scored
                };
                assert_scored_eq(&flow.scored, &fresh);
            }
            let pads: Vec<u32> = closed
                .iter()
                .filter(|c| c.packets < stack)
                .map(|c| c.scored.score.to_bits())
                .collect();
            let mut distinct = pads.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 2 + short.len(), "{quant:?}, {resident:?}");
            assert_eq!(
                scorer.pad_windows(),
                MemoCounts {
                    scored: pads.len() as u64,
                    memo_hits: (pads.len() - distinct.len()) as u64,
                },
                "{quant:?}, {resident:?}"
            );
            assert_eq!(
                scorer.prefix_steps(),
                MemoCounts {
                    scored: steps,
                    memo_hits: steps - prefixes.len() as u64,
                },
                "{quant:?}, {resident:?}"
            );
        }
    }

    /// `flow_entries` consults and fills the same memo: live short flows
    /// report the scores they close with whether the memo is cold, warmed
    /// by the dump itself or warmed by a scan closing around them — and a
    /// dump taken while closed flows' verdicts are queued leaves them as
    /// they were.
    #[test]
    fn flow_entries_scores_are_unchanged_after_the_memo_warms() {
        let clap = model();
        let mut offline = clap.scorer();
        let mut scorer = clap.stream_scorer();
        let live: Vec<Vec<Packet>> = (0..3u16)
            .map(|i| probe(1000 + i, false, 0.0))
            .chain(distinct_short_flows(0.0))
            .collect();
        for p in live.iter().flatten() {
            scorer.push(p);
        }
        let scores = |scorer: &mut StreamScorer<'_>| -> Vec<(FlowKey, u32)> {
            let entries = scorer.flow_entries();
            entries.iter().map(|e| (e.key, e.score.to_bits())).collect()
        };
        let cold = scores(&mut scorer);
        assert_eq!(cold.len(), live.len());
        for ((key, score), packets) in cold.iter().zip(&live) {
            let mut conn = Connection::new(*key);
            conn.packets = packets.clone();
            assert_eq!(*score, offline.score_connection(&conn).score.to_bits());
        }
        let after_dump = scorer.pad_windows();
        assert_eq!(after_dump.scored, live.len() as u64);
        assert_eq!(after_dump.memo_hits, 2, "three probes, one window");
        assert_eq!(scores(&mut scorer), cold, "warmed by the dump");
        // Ten closed probes' verdicts stay queued through the dump.
        let scan: Vec<Vec<Packet>> = (0..12u16).map(|i| probe(i, i < 10, 1.0)).collect();
        for p in scan
            .iter()
            .flat_map(|f| &f[..1])
            .chain(scan.iter().flat_map(|f| &f[1..]))
        {
            scorer.push(p);
        }
        let warm = scores(&mut scorer);
        assert_eq!(warm[..cold.len()], cold, "warmed by a scan");
        // The two unanswered probes pad to the live probes' window.
        assert!(warm[cold.len()..].iter().all(|&(_, s)| s == cold[0].1));
        assert_eq!(warm.len(), cold.len() + 2);
        let closed = scorer.drain_closed();
        assert_eq!(closed.len(), 10);
        for (flow, packets) in closed.iter().zip(&scan) {
            let mut conn = Connection::new(flow.key);
            conn.packets = packets.clone();
            assert_scored_eq(&flow.scored, &offline.score_connection(&conn));
        }
    }
}
