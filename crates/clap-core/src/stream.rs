//! Streaming per-flow scoring — the online counterpart of
//! [`Clap::score_connection`].
//!
//! The batch pipeline scores *complete* connections: capture, reassemble,
//! score. A line-rate DPI deployment cannot wait for completeness — it sees
//! one interleaved packet stream over millions of concurrent flows and must
//! emit verdicts as packets arrive. [`StreamScorer`] is that mode:
//!
//! * **A thin composition.** `StreamScorer` is a flow table (this
//!   module: key index, slab, timing wheel, close policy) around the
//!   crate's one per-packet scoring core (`scorer`: extract → GRU step →
//!   window → autoencoder) and the arena that holds each flow's neural
//!   state (`resident`).
//! * **Per-flow state, shared scratch.** Each live flow persists only what
//!   the model mathematically needs: the incremental feature-extraction
//!   anchors ([`FeatureExtractor`]), a [`FlowTracker`] for teardown
//!   detection, the GRU hidden state (`H` floats, advanced by
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
//!   orderly close reaching TIME_WAIT), on idle timeout (a hierarchical
//!   timing wheel, see below), on a per-flow packet cap, and —
//!   conntrack-`early_drop`-style — by probing a handful of slab entries
//!   and dropping the stalest when the table is full. Every eviction
//!   finalizes the flow and emits its [`ScoredConnection`].
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
//! # Cross-flow micro-batching
//!
//! With [`StreamConfig::microbatch`] ≥ 2 the scorer stops scoring each
//! packet's GRU step / AE window immediately and instead *continuously
//! batches* ready work across concurrent flows — the same trick
//! inference servers use to fill GEMM lanes from many concurrent
//! requests. Per packet, only the cheap per-flow bookkeeping runs
//! inline (TCP tracking, feature extraction, timers — everything
//! teardown and eviction decisions depend on); the packet's neural work
//! is staged into a pending set keyed by slab handle: its GRU input
//! row and the feature part of its profile row. A bursty flow may
//! stage *several* consecutive packets — each item records its
//! position (`round`) in its flow's chain. A **flush** then scores
//! the whole set in chain rounds: round `r` gathers the hidden state
//! of every item that is the `r`-th staged packet of its flow
//! (dequantized from the resident arena under [`ResidentMode::Int8`]),
//! runs one [`neural::PackedGru::step_batch`] over them and scatters
//! the states back (requantized in int8 resident mode), so round
//! `r + 1` reads exactly the states round `r` produced — the
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
//! counts and `last_seen` advance at *enqueue* time, so teardown,
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
//! [`finish`]: StreamScorer::finish
//! [`flush_pending`]: StreamScorer::flush_pending
//! [`push`]: StreamScorer::push
//!
//! # Flow-table substrate
//!
//! The table is built for millions of concurrent flows: a dense slab with
//! handle-based addressing, a hierarchical timing wheel for expiry, and an
//! optionally int8-quantized *resident* form of the per-flow neural state.
//!
//! **Slab + handle map.** Flow state lives in a dense `Vec<Slot>` slab
//! addressed by a `u32` handle; the `CanonicalKey → handle` hash map holds
//! only 16-byte entries. Departed slots go on an intrusive free list
//! (reusing the wheel's `next` link) and are recycled in place — eviction
//! and admission never reallocate at steady state, slab iteration is
//! cache-linear, and `slab.len()` is exactly the peak concurrent flow
//! count. The slab grows by doubling, clamped to
//! [`StreamConfig::max_flows`] so capacity never overshoots the
//! configured table size by more than 2× below the cap and not at all at
//! it.
//!
//! **Timing wheel.** Idle eviction and TIME_WAIT linger expiry share one
//! hierarchical timing wheel: 4 levels × 64 slots, level `l` covering
//! `64^(l+1)` ticks, one tick = `max(idle_timeout, …)/512` seconds
//! (clamped to `[1 ms, 60 s]`). A flow's timer is an intrusive
//! doubly-linked node threaded through its own slab slot, so arming,
//! re-arming (every packet) and cancelling are O(1) pointer splices, and
//! re-arming into the unchanged wheel slot — the overwhelmingly common
//! case, since a deadline moves only `granularity`-fraction per packet —
//! is a no-op. Timers are *lazy*: a slot stores no deadline, it is
//! recomputed from `last_seen` at fire time, so a timer that fires early
//! (coarse high-level slots, stale same-slot re-arms) is simply re-armed
//! at its true remaining delta. The wheel only advances at sweep
//! boundaries (every [`StreamConfig::sweep_interval`] packets, on the
//! max-timestamp stream clock); each advance detaches every list the
//! per-level cursors passed — at most one full revolution per level, so a
//! multi-hour clock jump costs O(levels × 64), not O(elapsed) — plus the
//! current tick's level-0 slot, which is how deadlines landing *inside*
//! the current tick still get their exact `last_seen < clock − timeout`
//! recheck at every boundary. Leaving a tick drains that tick's level-0
//! slot as part of the advance: a timer re-armed *into* the current tick
//! (its deadline already inside it) lives in a slot the per-level pass
//! never revisits, and would otherwise sit out a full 64-tick revolution. That recheck is the same float expression
//! the full-scan [`EvictionMode::Sweep`] reference uses, which is what
//! makes wheel and sweep evict bitwise-identical flow sets (pinned by
//! proptest): both fire at the same boundaries, both apply the same
//! predicate, and a flow that outlives an early fire is re-armed, never
//! dropped.
//!
//! **Resident int8 state.** [`ResidentMode::Int8`] stores each flow's GRU
//! hidden vector and its profile ring in the 7-bit activation format of
//! `neural::quant` (`quantize_activations`): codes plus one
//! `(scale, min)` pair per row, dequantized into scorer scratch on step
//! and requantized on store — ~4× shrink of the dominant per-flow arrays.
//! Unlike [`StreamConfig::quant`] (which quantizes *weights* and keeps
//! activations exact per GEMM), resident quantization round-trips state
//! through the grid once per packet, so scores drift; the drift is
//! bounded and calibrated by the same proptest harness that pins the PR 5
//! activation path (grid step `(max−min)/127` of each stored row).
//! Whichever mode, only the *last `stack − 1`* profiles are resident —
//! the current packet's row is built in scorer scratch and enters the
//! window from there, so the ring holds strictly the rows future windows
//! will re-read.
//!
//! **TIME_WAIT linger.** With [`StreamConfig::time_wait`] > 0, a flow
//! reaching TIME_WAIT is *not* finalized inline: it keeps scoring (FIN
//! retransmits, stray ACKs stay attributed to it) and its wheel timer
//! switches to the linger timeout. It finalizes (reason
//! [`CloseReason::TcpClose`]) when the linger expires — or immediately,
//! old incarnation first, when a fresh pure SYN reuses the 4-tuple. The
//! default `0.0` keeps the historical finalize-at-TIME_WAIT behavior that
//! the batch-equivalence guarantees are stated against.
//!
//! Per-flow memory at Table-6 sizes (`H = 32`, `stack = 3`, 115-float
//! profiles): a 16-byte map entry, a ~176-byte slot (key, compact
//! extractor/tracker, error-log Vec header, links), and resident state —
//! f32: `32 + 2×115` floats ≈ 1048 B; int8: `32 + 2×115` codes + 3
//! quant pairs ≈ 286 B. [`StreamScorer::mem_bytes`] reports the live
//! estimate; `exp_throughput --preset scale` gates `bytes_per_flow` in CI.
//!
//! Orientation matches the offline reassembler for every realistic
//! capture: a flow whose first packet is a pure SYN is oriented
//! immediately (the SYN sender is the client); a flow that starts
//! mid-capture buffers up to [`StreamConfig::orient_buffer`] leading
//! packets *unprocessed*, so a pure SYN arriving among them can
//! retroactively re-orient the flow before any feature is extracted —
//! exactly what [`net_packet::assemble_connections`] does offline. Only a
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

use crate::features::{FeatureExtractor, NUM_PACKET};
use crate::pipeline::Clap;
use crate::profile::PROFILE_LEN;
use crate::resident::ResidentArena;
pub use crate::resident::ResidentMode;
use crate::score::{score_errors, ScoredConnection};
use crate::scorer::{Flow, Scorer};
use clap_telemetry::hist::Stage;
use clap_telemetry::{StageHists, StageRecorder, StreamCells};
use net_packet::{CanonicalKey, Direction, Endpoint, FlowKey, Packet, TcpFlags};
use neural::{AeEngine, GruBatchScratch, GruEngine, Matrix, QuantMode};
use std::collections::HashMap;
use tcp_state::{FlowTracker, TcpState};

/// How idle (and TIME_WAIT-linger) expiry walks the flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionMode {
    /// Hierarchical timing wheel: O(1) per-packet re-arm, each sweep
    /// boundary touches only the flows whose timers fired.
    #[default]
    Wheel,
    /// Full slab scan at every sweep boundary. O(live flows) per sweep —
    /// the reference implementation the wheel is proptest-pinned against,
    /// kept for that harness and for debugging, not for production use.
    Sweep,
}

/// Flow-table policy for a [`StreamScorer`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Evict flows idle for longer than this many seconds. The clock is
    /// the maximum packet timestamp seen, so replayed captures age flows
    /// at capture speed, not wall-clock speed.
    pub idle_timeout: f64,
    /// Hard cap on concurrently tracked flows; at capacity the stalest of
    /// a small probe set is evicted to admit a new flow.
    pub max_flows: usize,
    /// Finalize a flow when its tracker reaches `CLOSE` (RST) or
    /// `TIME_WAIT` (orderly close). Disable to score past teardown — e.g.
    /// when comparing against batch scoring of captures that keep packets
    /// after a close.
    pub teardown_on_close: bool,
    /// Keep a flow that reached TIME_WAIT alive for this many seconds
    /// after its last packet instead of finalizing it inline (`0.0`, the
    /// default, finalizes at TIME_WAIT exactly as before). A lingering
    /// flow still scores late packets; a fresh pure SYN on the same
    /// 4-tuple closes it immediately and starts the new incarnation.
    /// Only meaningful with `teardown_on_close`.
    pub time_wait: f64,
    /// Finalize a flow after this many packets regardless of TCP state,
    /// bounding per-flow memory (the error log grows one `f32` per packet
    /// past the stack depth). Subsequent packets start a fresh flow.
    pub max_packets_per_flow: usize,
    /// Advance the expiry machinery every this many packets. With
    /// [`EvictionMode::Wheel`] each boundary costs O(timers fired); with
    /// [`EvictionMode::Sweep`] it costs O(live flows).
    pub sweep_interval: usize,
    /// A flow that does **not** begin with a pure SYN (a mid-capture
    /// start) buffers up to this many leading packets before anything is
    /// scored, so a late pure SYN among them re-orients the flow exactly
    /// like the offline reassembler. `0` restores first-packet pinning.
    pub orient_buffer: usize,
    /// Engine precision for this scorer's GRU and autoencoder
    /// ([`QuantMode::Int8`] runs the int8 quantized kernels). Defaults to
    /// [`QuantMode::Off`], exact f32.
    pub quant: QuantMode,
    /// Expiry mechanism — wheel by default, full-scan sweep as the
    /// equivalence-test reference.
    pub eviction: EvictionMode,
    /// Per-flow resident-state precision. Independent of [`quant`]
    /// (weights vs state); defaults to exact f32.
    ///
    /// [`quant`]: StreamConfig::quant
    pub resident: ResidentMode,
    /// Cross-flow micro-batch capacity (see the module docs' design
    /// note): collect up to this many ready per-packet work items
    /// across flows and flush them through one batched GEMM. `0` or
    /// `1` scores every packet immediately — the per-packet path, and
    /// the default (`0`).
    pub microbatch: usize,
    /// Latency budget: flush a non-empty micro-batch after this many
    /// subsequent stream packets even if it never fills. Ignored when
    /// [`microbatch`](StreamConfig::microbatch) is off.
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

/// Why a flow left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// TCP teardown observed (RST, or orderly close reaching TIME_WAIT —
    /// after the [`StreamConfig::time_wait`] linger, if one is set).
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
    /// Flows finalized by TCP teardown (including expired TIME_WAIT
    /// lingers).
    pub closed_tcp: u64,
    /// Flows finalized at [`StreamConfig::max_packets_per_flow`].
    pub length_capped: u64,
    /// Flows flushed by [`StreamScorer::finish`].
    pub drained: u64,
    /// Subset of `closed_tcp` whose TIME_WAIT linger expired on the wheel.
    pub time_wait_expired: u64,
}

/// Point-in-time view of one live flow-table entry — the conntrack-style
/// introspection record behind [`StreamScorer::flow_entries`]. Everything
/// here is a *current* value; the flow keeps scoring after the dump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEntry {
    /// The flow's oriented 5-tuple (client endpoint first).
    pub key: FlowKey,
    /// TCP connection state, `None` for non-TCP flows.
    pub state: Option<TcpState>,
    /// Whether the flow is in its TIME_WAIT linger window.
    pub lingering: bool,
    /// Packets scored so far (this incarnation).
    pub packets: u64,
    /// Wire bytes seen so far (this incarnation).
    pub bytes: u64,
    /// Seconds since the incarnation's first packet, on the stream clock.
    pub age: f64,
    /// Seconds since the flow's last packet, on the stream clock.
    pub idle: f64,
    /// Arrival tag of the incarnation's first packet.
    pub arrival: u64,
    /// The anomaly score the flow would close with right now.
    pub score: f32,
}

/// Null handle / list terminator for the slab's intrusive links.
const NIL: u32 = u32::MAX;
/// "Not armed" marker for [`Slot::wheel_pos`].
const NIL_POS: u16 = u16::MAX;

/// Slot flag: occupied by a live flow (clear = on the free list).
const FLAG_LIVE: u8 = 1;
/// Slot flag: flow reached TIME_WAIT and is lingering (timer runs on
/// [`StreamConfig::time_wait`] instead of the idle timeout).
const FLAG_LINGER: u8 = 1 << 1;
/// Slot flag: the flow has at least one packet staged in the pending
/// micro-batch. Consecutive packets chain (see [`PendItem::round`]);
/// the flag marks that the flow's resident state is stale until the
/// next flush.
const FLAG_PENDING: u8 = 1 << 2;

/// How many slab entries the capacity evictor probes before dropping the
/// stalest (conntrack's `early_drop` idea: O(1) bounded work instead of a
/// full LRU structure).
const EVICT_PROBES: usize = 8;

/// log2 of the wheel fan-out: 64 slots per level.
const WHEEL_BITS: u32 = 6;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// 4 levels cover `64^4 ≈ 16.7M` ticks; later deadlines clamp into the
/// top level and cascade on (early) fire.
const WHEEL_LEVELS: usize = 4;

/// Per-flow slab slot. The neural resident state (hidden vector, profile
/// ring) lives in the parallel [`ResidentArena`], indexed by the same
/// handle; the wheel links double as the free-list link when the slot is
/// vacant.
#[derive(Debug, Clone)]
struct Slot {
    key: FlowKey,
    extractor: FeatureExtractor,
    tracker: FlowTracker,
    /// Reconstruction error per emitted stacked window, in order.
    window_errors: Vec<f32>,
    /// Leading packets held back (with their arrival tags) while the
    /// flow's orientation is still undecided (`Some` only for flows that
    /// did not start with a pure SYN, until
    /// [`StreamConfig::orient_buffer`] fills or a SYN lands). Boxed: the
    /// common case is `None` and the slab stays dense — the extra
    /// indirection trades a pointer-sized field here for 16 fewer bytes
    /// in every one of a million slots.
    #[allow(clippy::box_collection)]
    pending: Option<Box<Vec<(u64, Packet)>>>,
    /// Arrival tag of this incarnation's first packet.
    arrival: u64,
    /// Capture timestamp of this incarnation's first packet (flow age in
    /// the introspection dump is measured from here).
    first_seen: f64,
    last_seen: f64,
    packets: u32,
    /// Total wire bytes seen by this incarnation (conntrack-style
    /// accounting for the flow dump).
    bytes: u64,
    /// Intrusive wheel list forward link; the free-list link when vacant.
    wheel_next: u32,
    wheel_prev: u32,
    /// `level * 64 + slot` the timer is linked into, or [`NIL_POS`].
    wheel_pos: u16,
    flags: u8,
}

impl Slot {
    fn new(key: FlowKey, now: f64, arrival: u64) -> Slot {
        let tracker = FlowTracker::for_proto(key.proto);
        Slot {
            key,
            extractor: FeatureExtractor::new(),
            tracker,
            window_errors: Vec::new(),
            pending: None,
            arrival,
            first_seen: now,
            last_seen: now,
            packets: 0,
            bytes: 0,
            wheel_next: NIL,
            wheel_prev: NIL,
            wheel_pos: NIL_POS,
            flags: FLAG_LIVE,
        }
    }

    fn live(&self) -> bool {
        self.flags & FLAG_LIVE != 0
    }

    fn lingering(&self) -> bool {
        self.flags & FLAG_LINGER != 0
    }
}

/// Hierarchical timing wheel over the slab (see the module docs' design
/// note). Owns only the slot heads and the cursor; the list links live in
/// the slab slots themselves.
#[derive(Debug)]
struct Wheel {
    /// Seconds per level-0 tick.
    granularity: f64,
    /// `WHEEL_LEVELS × WHEEL_SLOTS` list heads, flattened.
    heads: Vec<u32>,
    /// Current level-0 tick (`floor(clock / granularity)` as of the last
    /// advance).
    cur: u64,
    /// Number of armed timers, to short-circuit empty advances.
    armed: usize,
}

impl Wheel {
    fn new(granularity: f64) -> Wheel {
        Wheel {
            granularity,
            heads: vec![NIL; WHEEL_LEVELS * WHEEL_SLOTS],
            cur: 0,
            armed: 0,
        }
    }

    fn tick_of(&self, t: f64) -> u64 {
        (t.max(0.0) / self.granularity) as u64
    }

    /// `level * 64 + slot` where a timer due at `tick` belongs, given the
    /// current cursor: the level whose span covers the remaining delta,
    /// indexed by the deadline's digit at that level. Deadlines beyond
    /// the top level's span clamp into it (they fire early and cascade).
    fn pos_for(&self, tick: u64) -> u16 {
        let max_span = 1u64 << (WHEEL_BITS * WHEEL_LEVELS as u32);
        let delta = tick.saturating_sub(self.cur).min(max_span - 1);
        let eff = self.cur + delta;
        let mut level = 0;
        while level + 1 < WHEEL_LEVELS && delta >= (1u64 << (WHEEL_BITS * (level as u32 + 1))) {
            level += 1;
        }
        let idx = ((eff >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
        (level * WHEEL_SLOTS + idx) as u16
    }

    /// Links `handle` at `pos` (front of the list). Caller guarantees it
    /// is not currently linked.
    fn link(&mut self, slab: &mut [Slot], handle: u32, pos: u16) {
        let head = self.heads[pos as usize];
        {
            let s = &mut slab[handle as usize];
            debug_assert_eq!(s.wheel_pos, NIL_POS);
            s.wheel_pos = pos;
            s.wheel_prev = NIL;
            s.wheel_next = head;
        }
        if head != NIL {
            slab[head as usize].wheel_prev = handle;
        }
        self.heads[pos as usize] = handle;
        self.armed += 1;
    }

    /// Splices `handle` out of its list; no-op if unarmed.
    fn unlink(&mut self, slab: &mut [Slot], handle: u32) {
        let (prev, next, pos) = {
            let s = &slab[handle as usize];
            (s.wheel_prev, s.wheel_next, s.wheel_pos)
        };
        if pos == NIL_POS {
            return;
        }
        if prev == NIL {
            self.heads[pos as usize] = next;
        } else {
            slab[prev as usize].wheel_next = next;
        }
        if next != NIL {
            slab[next as usize].wheel_prev = prev;
        }
        let s = &mut slab[handle as usize];
        s.wheel_pos = NIL_POS;
        s.wheel_next = NIL;
        s.wheel_prev = NIL;
        self.armed -= 1;
    }

    /// Detaches every timer in list `pos` into `out`.
    fn detach_list(&mut self, slab: &mut [Slot], pos: usize, out: &mut Vec<u32>) {
        let mut handle = self.heads[pos];
        self.heads[pos] = NIL;
        while handle != NIL {
            let s = &mut slab[handle as usize];
            let next = s.wheel_next;
            s.wheel_pos = NIL_POS;
            s.wheel_next = NIL;
            s.wheel_prev = NIL;
            self.armed -= 1;
            out.push(handle);
            handle = next;
        }
    }

    /// Moves the cursor to `to`, detaching into `out` every timer whose
    /// slot a per-level cursor passed (capped at one revolution per
    /// level) plus the destination tick's level-0 slot — the lazy
    /// recheck for deadlines inside the current tick. The caller
    /// exact-checks each detached timer and re-arms survivors.
    fn advance(&mut self, slab: &mut [Slot], to: u64, out: &mut Vec<u32>) {
        let to = to.max(self.cur);
        if self.armed > 0 {
            // Leaving the current tick: drain its level-0 slot first. It
            // can only hold deadlines at tick ≤ `cur` (a delta of 1..=63
            // indexes a different slot and 64+ a higher level), and the
            // per-level pass below starts at `cur + 1`, so anything parked
            // here by a within-tick re-arm would otherwise wait a full
            // revolution.
            if to > self.cur {
                self.detach_list(slab, (self.cur & (WHEEL_SLOTS as u64 - 1)) as usize, out);
            }
            for level in 0..WHEEL_LEVELS {
                let shift = WHEEL_BITS * level as u32;
                let from_pos = self.cur >> shift;
                let to_pos = to >> shift;
                if from_pos == to_pos {
                    break;
                }
                let steps = (to_pos - from_pos).min(WHEEL_SLOTS as u64);
                for s in 1..=steps {
                    let idx = ((from_pos + s) & (WHEEL_SLOTS as u64 - 1)) as usize;
                    self.detach_list(slab, level * WHEEL_SLOTS + idx, out);
                }
            }
            self.cur = to;
            self.detach_list(slab, (to & (WHEEL_SLOTS as u64 - 1)) as usize, out);
        } else {
            self.cur = to;
        }
    }

    /// Drops every armed timer (the slab is being cleared wholesale).
    /// The cursor survives, like the stream clock it follows.
    fn reset(&mut self) {
        self.heads.fill(NIL);
        self.armed = 0;
    }
}

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
    /// Whether this packet completes a stacked window (`t + 1 ≥ stack`).
    window: bool,
}

/// Cross-flow micro-batch staging (see the module docs' design note).
/// All matrices grow one row per enqueue and truncate at the next
/// cycle's first enqueue; steady-state batching allocates nothing.
#[derive(Debug)]
struct MicroBatcher {
    /// Flush threshold ([`StreamConfig::microbatch`]; < 2 disables).
    cap: usize,
    /// Latency budget ([`StreamConfig::microbatch_wait`]).
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
    /// part is written at enqueue, the gate part at flush.
    rows: Matrix,
    /// The stacked windows completed by the flushing batch, one row per
    /// item with [`PendItem::window`] set, in round-major order.
    windows: Matrix,
    /// Slab handle owning each `windows` row, for distributing the
    /// batched reconstruction errors after the rounds run.
    win_flows: Vec<u32>,
    scratch: GruBatchScratch,
    /// Lifetime flush-size histogram: `occupancy[b − 1]` counts flushes
    /// of exactly `b` rows. Survives [`StreamScorer::reset`], like
    /// [`StreamStats`].
    occupancy: Vec<u64>,
}

impl MicroBatcher {
    fn new(cap: usize, wait: usize) -> MicroBatcher {
        MicroBatcher {
            cap,
            wait: wait.max(1),
            age: 0,
            items: Vec::new(),
            xs: Matrix::default(),
            rxs: Matrix::default(),
            hs: Matrix::default(),
            zs: Matrix::default(),
            rs: Matrix::default(),
            rows: Matrix::default(),
            windows: Matrix::default(),
            win_flows: Vec::new(),
            scratch: GruBatchScratch::new(),
            occupancy: vec![0; cap],
        }
    }

    fn enabled(&self) -> bool {
        self.cap >= 2
    }
}

/// Online per-flow scoring session over one interleaved packet stream.
/// Create via [`Clap::stream_scorer`] (or
/// [`Clap::stream_scorer_with`] for a custom [`StreamConfig`]); one
/// scorer per ingest thread.
pub struct StreamScorer<'a> {
    config: StreamConfig,
    /// The per-packet scoring core: engines and flow-independent scratch.
    scorer: Scorer<'a>,
    /// `CanonicalKey → slab handle`.
    flows: HashMap<CanonicalKey, u32>,
    slab: Vec<Slot>,
    resident: ResidentArena,
    /// Head of the vacant-slot free list (threaded through `wheel_next`).
    free_head: u32,
    wheel: Wheel,
    /// Rotating slab cursor for capacity-eviction probes, so victim
    /// selection is unbiased across the table.
    probe_cursor: u32,
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
    /// Cross-flow micro-batch staging (inert when
    /// [`StreamConfig::microbatch`] < 2).
    mb: MicroBatcher,
    /// Handles detached by the last wheel advance.
    fired: Vec<u32>,
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
    pub fn stream_scorer_with(&self, config: StreamConfig) -> StreamScorer<'_> {
        // One tick ≈ timeout/512 keeps the shortest timeout within the
        // bottom two wheel levels; the clamp guards degenerate configs.
        let mut shortest = config.idle_timeout;
        if config.time_wait > 0.0 {
            shortest = shortest.min(config.time_wait);
        }
        let granularity = (shortest / 512.0).clamp(1e-3, 60.0);
        let mb = MicroBatcher::new(config.microbatch, config.microbatch_wait);
        let gru = GruEngine::from_packed(self.rnn.packed(), config.quant);
        StreamScorer {
            resident: ResidentArena::new(config.resident, gru.hidden_size(), self.config.stack),
            scorer: Scorer::new(self, gru, AeEngine::from_model(&self.ae, config.quant)),
            config,
            flows: HashMap::new(),
            slab: Vec::new(),
            free_head: NIL,
            wheel: Wheel::new(granularity),
            probe_cursor: 0,
            closed: Vec::new(),
            cells: std::sync::Arc::new(StreamCells::default()),
            stages: StageRecorder::new(),
            mb,
            fired: Vec::new(),
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
    /// [`drain_closed`](Self::drain_closed). Under micro-batching
    /// ([`StreamConfig::microbatch`] ≥ 2) the window error is usually
    /// still pending when `push` returns, so this returns `None` and the
    /// error surfaces in the flow's [`ClosedFlow`] log instead.
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
        if !self.mb.items.is_empty() {
            // Latency budget: a pending micro-batch may wait at most
            // `microbatch_wait` stream packets before scoring.
            self.mb.age += 1;
            if self.mb.age >= self.mb.wait {
                self.flush_batch();
            }
        }
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
        let mut handle = self.flows.get(&ck).copied();
        if let Some(h) = handle {
            // 4-tuple reuse during a TIME_WAIT linger: the old
            // incarnation closes now, the SYN opens a fresh one.
            if is_pure_syn && self.slab[h as usize].lingering() {
                self.close_flow(h, CloseReason::TcpClose);
                handle = None;
            }
        }
        let h = match handle {
            Some(h) => h,
            None => {
                if self.flows.len() >= self.config.max_flows.max(1) {
                    self.evict_stalest();
                }
                // Orientation: a pure SYN identifies the initiator
                // outright; anything else is provisionally
                // first-packet-oriented and — with a non-zero orient
                // buffer — held back so a late SYN can still re-orient it.
                let key = FlowKey::new(
                    Endpoint::new(p.src_addr(), p.src_port()),
                    Endpoint::new(p.dst_addr(), p.dst_port()),
                )
                .with_proto(p.transport.protocol_number());
                let h = self.alloc_slot(key, tag);
                if !is_pure_syn && self.config.orient_buffer > 0 {
                    self.slab[h as usize].pending = Some(Box::new(Vec::with_capacity(1)));
                }
                self.flows.insert(ck, h);
                self.cells
                    .flow_opened(self.flows.len() as u64, self.slab.len() as u64);
                h
            }
        };

        self.slab[h as usize].last_seen = self.clock;
        self.arm(h);
        let slot = &mut self.slab[h as usize];
        if let Some(buf) = slot.pending.as_mut() {
            if is_pure_syn {
                // The SYN sender is the real client; re-orient before any
                // packet of this flow has been scored, then replay.
                slot.key = FlowKey::new(
                    Endpoint::new(p.src_addr(), p.src_port()),
                    Endpoint::new(p.dst_addr(), p.dst_port()),
                )
                .with_proto(p.transport.protocol_number());
            } else if buf.len() < self.config.orient_buffer {
                buf.push((tag, p.clone()));
                return None;
            }
            // Buffer full (no SYN showed up) or SYN-resolved: flush.
            let buffered = slot.pending.take().expect("pending checked above");
            return self.replay(ck, &buffered, p, tag);
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
                .flows
                .get(&ck)
                .copied()
                .filter(|&h| self.slab[h as usize].pending.is_none());
            last = match oriented {
                Some(h) => self.score_packet(h, q),
                None => self.ingest(q, t),
            };
        }
        last
    }

    /// Runs one packet of an oriented flow through the scoring engine
    /// (immediately, or staged into the pending micro-batch) and applies
    /// the teardown / length-cap / TIME_WAIT-linger policy. The policy
    /// inputs — tracker state, packet count — advance at enqueue time,
    /// so its decisions are identical with batching on or off; if it
    /// closes the flow, [`close_flow`](Self::close_flow) flushes the
    /// pending batch first, scoring this packet before finalization.
    fn score_packet(&mut self, h: u32, p: &Packet) -> Option<f32> {
        let hi = h as usize;
        let emitted = if self.mb.enabled() {
            self.enqueue_one(hi, p);
            if self.mb.items.len() >= self.mb.cap {
                self.flush_batch();
            }
            None
        } else {
            self.advance_one(hi, p)
        };
        let slot = &self.slab[hi];
        let mut torn_down = false;
        let mut start_linger = false;
        if self.config.teardown_on_close {
            match slot.tracker.tcp_state() {
                Some(TcpState::Close) => torn_down = true,
                Some(TcpState::TimeWait) => {
                    if self.config.time_wait > 0.0 {
                        start_linger = !slot.lingering();
                    } else {
                        torn_down = true;
                    }
                }
                _ => {}
            }
        }
        let capped = self.slab[hi].packets as usize >= self.config.max_packets_per_flow;
        if torn_down || capped {
            let reason = if torn_down {
                CloseReason::TcpClose
            } else {
                CloseReason::LengthCapped
            };
            self.close_flow(h, reason);
        } else if start_linger {
            self.slab[hi].flags |= FLAG_LINGER;
            // Switch the timer from the idle to the linger timeout.
            self.arm(h);
        }
        emitted
    }

    /// Advances one oriented flow by one packet: TCP tracking and byte
    /// accounting here, everything neural in [`Scorer::advance`].
    fn advance_one(&mut self, hi: usize, p: &Packet) -> Option<f32> {
        let mut clock = self.stages.sample();
        let slot = &mut self.slab[hi];
        // Same fallback as `Connection::direction`: packets matching
        // neither orientation count as client→server.
        let dir = slot
            .key
            .direction_of(p)
            .unwrap_or(Direction::ClientToServer);
        slot.tracker.process(p, dir);
        slot.bytes += p.wire_len() as u64;
        let flow = Flow {
            extractor: &mut slot.extractor,
            packets: &mut slot.packets,
            resident: &mut self.resident,
            slot: hi,
        };
        let emitted = self.scorer.advance(flow, p, dir, &mut clock);
        slot.window_errors.extend(emitted);
        emitted
    }

    /// Stages one packet of an oriented flow into the pending
    /// micro-batch: TCP tracking and feature extraction run now (so
    /// teardown and eviction decisions stay packet-exact); the GRU step
    /// and the window's autoencoder pass run at the next flush. Mirrors
    /// [`advance_one`](Self::advance_one) and the part of
    /// [`Scorer::advance`] before the step. A flow
    /// that already has staged packets chains behind them (the scan for
    /// its chain depth is bounded by the batch capacity).
    fn enqueue_one(&mut self, hi: usize, p: &Packet) {
        let Self {
            scorer:
                Scorer {
                    clap,
                    builder,
                    gru,
                    fv,
                    ..
                },
            slab,
            mb,
            stages,
            ..
        } = self;
        let mut clock = stages.sample();
        let stack = builder.stack;

        let slot = &mut slab[hi];
        let dir = slot
            .key
            .direction_of(p)
            .unwrap_or(Direction::ClientToServer);
        slot.tracker.process(p, dir);
        slot.extractor.push_into(p, dir, fv);
        let t = slot.packets as usize;
        slot.packets += 1;
        slot.bytes += p.wire_len() as u64;
        let round = if slot.flags & FLAG_PENDING != 0 {
            mb.items.iter().filter(|it| it.handle == hi as u32).count() as u32
        } else {
            slot.flags |= FLAG_PENDING;
            0
        };

        let b = mb.items.len();
        mb.rows.resize(b + 1, PROFILE_LEN);
        let (feat, _) = mb.rows.row_mut(b).split_at_mut(NUM_PACKET);
        clap.ranges.write_packet_features(fv, feat);
        mb.xs.resize(b + 1, gru.input_size());
        mb.xs.row_mut(b).copy_from_slice(&fv.base);
        mb.items.push(PendItem {
            handle: hi as u32,
            t: t as u32,
            round,
            window: t + 1 >= stack,
        });
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Extract);
        }
    }

    /// Scores every pending micro-batched item in chain rounds: round
    /// `r` gathers the hidden state of each flow's `r`-th staged packet
    /// from the resident arena (round `r − 1`'s scatter already landed
    /// there), runs one batched GRU step over the gathered rows,
    /// scatters the states back and does the per-item gate copy, window
    /// assembly and ring store; one batched autoencoder pass then
    /// scores every completed window across all rounds. Every row
    /// reproduces the per-packet path bitwise (see the module design
    /// note); never closes a flow, so it is safe to call from
    /// [`close_flow`](Self::close_flow).
    fn flush_batch(&mut self) {
        if self.mb.items.is_empty() {
            return;
        }
        let Self {
            scorer:
                Scorer {
                    gru,
                    ae,
                    builder,
                    ae_ws,
                    err_scratch,
                    code_scratch,
                    ..
                },
            slab,
            resident,
            mb,
            stages,
            ..
        } = self;
        // Batched work amortizes across flows, so time the whole flush
        // (per-stage) rather than sampling individual packets.
        let mut clock = stages.start();
        let stack = builder.stack;
        let hidden = gru.hidden_size();
        let MicroBatcher {
            age,
            items,
            xs,
            rxs,
            hs,
            zs,
            rs,
            rows,
            windows,
            win_flows,
            scratch,
            occupancy,
            ..
        } = mb;

        windows.resize(0, stack * PROFILE_LEN);
        win_flows.clear();
        let mut round = 0u32;
        let mut remaining = items.len();
        while remaining > 0 {
            // Gather this round's items into dense matrices. The scans
            // are bounded by the batch capacity, and chains deeper than
            // one round exist only for flows that sent back-to-back
            // packets since the last flush.
            let b = items.iter().filter(|it| it.round == round).count();
            rxs.resize(b, gru.input_size());
            hs.resize(b, hidden);
            let mut k = 0;
            for (i, item) in items.iter().enumerate() {
                if item.round != round {
                    continue;
                }
                let hi = item.handle as usize;
                rxs.row_mut(k).copy_from_slice(xs.row(i));
                resident.read_hidden(hi, hs.row_mut(k));
                k += 1;
            }

            gru.step_batch(rxs, hs, scratch, zs, rs);

            let mut k = 0;
            for (i, item) in items.iter().enumerate() {
                if item.round != round {
                    continue;
                }
                let hi = item.handle as usize;
                resident.store_hidden(hi, hs.row(k), code_scratch);
                let row = rows.row_mut(i);
                let (_, gates) = row.split_at_mut(NUM_PACKET);
                let (z, r) = gates.split_at_mut(hidden);
                z.copy_from_slice(zs.row(k));
                r.copy_from_slice(rs.row(k));
                let t = item.t as usize;
                if item.window {
                    // The flow's ring is exactly "as of packet t − 1"
                    // here (its previous packet, if staged, stored its
                    // row in the previous round), so assemble the
                    // window before storing row t.
                    let w = windows.rows;
                    windows.resize(w + 1, stack * PROFILE_LEN);
                    let dst = windows.row_mut(w);
                    resident.read_window_head(hi, t, dst);
                    dst[(stack - 1) * PROFILE_LEN..].copy_from_slice(rows.row(i));
                    win_flows.push(item.handle);
                }
                resident.store_profile(hi, t, rows.row(i), code_scratch);
                k += 1;
            }
            remaining -= b;
            round += 1;
        }
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Gru);
        }

        err_scratch.clear();
        if windows.rows > 0 {
            ae.reconstruction_errors_into(windows, ae_ws, err_scratch);
        }
        // Round-major distribution preserves each flow's packet order
        // (a flow's windows sit in consecutive rounds).
        for (k, &h) in win_flows.iter().enumerate() {
            slab[h as usize].window_errors.push(err_scratch[k]);
        }
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::AeWindow);
        }
        for item in items.iter() {
            slab[item.handle as usize].flags &= !FLAG_PENDING;
        }
        occupancy[items.len() - 1] += 1;
        items.clear();
        *age = 0;
    }

    /// Flushes any pending micro-batched work immediately — a no-op when
    /// micro-batching is off or nothing is pending. The sharded engine
    /// calls this when a shard's ingest ring goes idle, so staged
    /// packets never wait on further traffic to be scored.
    pub fn flush_pending(&mut self) {
        self.flush_batch();
    }

    /// Lifetime micro-batch flush-size histogram: entry `b` counts
    /// flushes of exactly `b + 1` rows. Empty when micro-batching is
    /// off.
    pub fn batch_occupancy(&self) -> &[u64] {
        &self.mb.occupancy
    }

    /// Currently tracked (live) flows.
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// Dumps every live flow-table entry (conntrack-style list), ordered
    /// by arrival tag — a stable, stream-deterministic order. O(live
    /// flows); meant for operator introspection, not the hot path.
    pub fn flow_entries(&self) -> Vec<FlowEntry> {
        let mut out: Vec<FlowEntry> = self
            .flows
            .values()
            .map(|&h| self.flow_entry_at(h))
            .collect();
        out.sort_by_key(|e| e.arrival);
        out
    }

    /// Looks up one live flow by its canonical (orientation-invariant)
    /// key — conntrack's `get` analogue.
    pub fn flow_entry(&self, key: &CanonicalKey) -> Option<FlowEntry> {
        self.flows.get(key).map(|&h| self.flow_entry_at(h))
    }

    fn flow_entry_at(&self, h: u32) -> FlowEntry {
        let slot = &self.slab[h as usize];
        let (_, score) = score_errors(&slot.window_errors, self.scorer.clap.config.score_window);
        FlowEntry {
            key: slot.key,
            state: slot.tracker.tcp_state(),
            lingering: slot.lingering(),
            packets: slot.packets as u64,
            bytes: slot.bytes,
            age: (self.clock - slot.first_seen).max(0.0),
            idle: (self.clock - slot.last_seen).max(0.0),
            arrival: slot.arrival,
            score,
        }
    }

    /// The engine precision this scorer runs at.
    pub fn quant_mode(&self) -> QuantMode {
        self.scorer.gru.mode()
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
            time_wait_expired: c.time_wait_expired,
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
            .flow_opened(self.flows.len() as u64, self.slab.len() as u64);
    }

    /// Routes per-stage latency samples into caller-owned histograms:
    /// from here on one packet in `clap_telemetry::hist::SAMPLE_EVERY`
    /// reads the clock at each stage boundary. A scorer that never calls
    /// this reads no clock.
    pub fn attach_stages(&mut self, hists: std::sync::Arc<StageHists>) {
        self.stages.attach(hists);
    }

    /// Estimated heap footprint of the flow table: handle map, slab,
    /// resident arenas, wheel and the live flows' error logs / orient
    /// buffers. O(slab) — meant for periodic sampling, not the hot path.
    /// Excludes the pending-verdict queue (drained by the caller) and the
    /// shared scratch, micro-batch staging included (constant-size —
    /// bounded by the batch capacity — and flow-independent).
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        // hashbrown resizes at 7/8 load; one ctrl byte per bucket.
        let map = if self.flows.capacity() == 0 {
            0
        } else {
            (self.flows.capacity() * 8 / 7).next_power_of_two()
                * (size_of::<(CanonicalKey, u32)>() + 1)
        };
        let logs: usize = self
            .slab
            .iter()
            .map(|s| {
                s.window_errors.capacity() * size_of::<f32>()
                    + s.pending.as_ref().map_or(0, |b| {
                        size_of::<Vec<(u64, Packet)>>() + b.capacity() * size_of::<(u64, Packet)>()
                    })
            })
            .sum();
        map + self.slab.capacity() * size_of::<Slot>()
            + self.resident.heap_bytes()
            + self.wheel.heads.capacity() * size_of::<u32>()
            + logs
    }

    /// Takes every flow finalized since the last drain.
    pub fn drain_closed(&mut self) -> Vec<ClosedFlow> {
        std::mem::take(&mut self.closed)
    }

    /// Finalizes all remaining live flows and returns everything closed
    /// since the last drain (end-of-capture flush). Lingering TIME_WAIT
    /// flows close as [`CloseReason::TcpClose`] (teardown was observed),
    /// everything else as [`CloseReason::Drained`].
    pub fn finish(&mut self) -> Vec<ClosedFlow> {
        for hi in 0..self.slab.len() {
            if self.slab[hi].live() {
                let reason = if self.slab[hi].lingering() {
                    CloseReason::TcpClose
                } else {
                    CloseReason::Drained
                };
                self.close_flow(hi as u32, reason);
            }
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
        self.flows.clear();
        self.slab.clear();
        self.resident.clear();
        self.free_head = NIL;
        self.wheel.reset();
        self.closed.clear();
        self.fired.clear();
        self.probe_cursor = 0;
        self.packets_since_sweep = 0;
        // Staged micro-batch items reference slab handles that no longer
        // exist; drop them wholesale (the occupancy histogram survives,
        // like the stats).
        self.mb.items.clear();
        self.mb.age = 0;
        self.cells.live_sync(0);
    }

    /// Allocates a slab slot (recycling the free list first) for a new
    /// flow and tracks the peak.
    fn alloc_slot(&mut self, key: FlowKey, arrival: u64) -> u32 {
        let now = self.clock;
        let h = if self.free_head != NIL {
            let h = self.free_head;
            let slot = &mut self.slab[h as usize];
            self.free_head = slot.wheel_next;
            *slot = Slot::new(key, now, arrival);
            self.resident.clear_slot(h as usize);
            h
        } else {
            if self.slab.len() == self.slab.capacity() {
                // Exact doubling clamped to the table cap, so slab (and
                // arena) capacity never overshoots `max_flows`.
                let target = (self.slab.capacity() * 2)
                    .clamp(64, self.config.max_flows.max(64))
                    .max(self.slab.len() + 1);
                self.slab.reserve_exact(target - self.slab.len());
                self.resident.reserve_slots(target);
            }
            let h = self.slab.len() as u32;
            self.slab.push(Slot::new(key, now, arrival));
            self.resident.push_slot();
            h
        };
        // The peak gauge advances in `ingest` (flow_opened), after the
        // new flow is mapped — slab growth and the map insert land in one
        // telemetry write section.
        h
    }

    /// Returns a finalized slot to the free list.
    fn free_slot(&mut self, h: u32) {
        let slot = &mut self.slab[h as usize];
        debug_assert_eq!(slot.wheel_pos, NIL_POS, "freed slot must be unarmed");
        slot.flags = 0;
        slot.pending = None;
        slot.wheel_prev = NIL;
        slot.wheel_next = self.free_head;
        self.free_head = h;
    }

    /// (Re-)arms a flow's expiry timer from its `last_seen` and active
    /// timeout. A no-op in [`EvictionMode::Sweep`] and when the deadline
    /// maps to the timer's current wheel slot (the common per-packet
    /// case).
    fn arm(&mut self, h: u32) {
        if self.config.eviction != EvictionMode::Wheel {
            return;
        }
        let slot = &self.slab[h as usize];
        let timeout = if slot.lingering() {
            self.config.time_wait
        } else {
            self.config.idle_timeout
        };
        let pos = self
            .wheel
            .pos_for(self.wheel.tick_of(slot.last_seen + timeout));
        if slot.wheel_pos == pos {
            return;
        }
        self.wheel.unlink(&mut self.slab, h);
        self.wheel.link(&mut self.slab, h, pos);
    }

    /// Expires idle and linger-complete flows at a sweep boundary. Both
    /// modes apply the identical `last_seen < clock − timeout` predicate,
    /// so they finalize identical flow sets — the wheel just skips
    /// straight to the candidates its fired timers name.
    fn expire_due(&mut self) {
        match self.config.eviction {
            EvictionMode::Wheel => {
                let to = self.wheel.tick_of(self.clock);
                let mut fired = std::mem::take(&mut self.fired);
                fired.clear();
                self.wheel.advance(&mut self.slab, to, &mut fired);
                for &h in &fired {
                    let slot = &self.slab[h as usize];
                    debug_assert!(slot.live(), "wheel fired a vacant slot");
                    let lingering = slot.lingering();
                    let timeout = if lingering {
                        self.config.time_wait
                    } else {
                        self.config.idle_timeout
                    };
                    if slot.last_seen < self.clock - timeout {
                        if lingering {
                            self.cells.time_wait_expired();
                            self.close_flow(h, CloseReason::TcpClose);
                        } else {
                            self.close_flow(h, CloseReason::IdleTimeout);
                        }
                    } else {
                        self.arm(h);
                    }
                }
                self.fired = fired;
            }
            EvictionMode::Sweep => {
                for hi in 0..self.slab.len() {
                    let slot = &self.slab[hi];
                    if !slot.live() {
                        continue;
                    }
                    let lingering = slot.lingering();
                    let timeout = if lingering {
                        self.config.time_wait
                    } else {
                        self.config.idle_timeout
                    };
                    if slot.last_seen < self.clock - timeout {
                        if lingering {
                            self.cells.time_wait_expired();
                            self.close_flow(hi as u32, CloseReason::TcpClose);
                        } else {
                            self.close_flow(hi as u32, CloseReason::IdleTimeout);
                        }
                    }
                }
            }
        }
    }

    /// Table-full eviction: probe a few slab entries past a rotating
    /// cursor, drop the stalest.
    fn evict_stalest(&mut self) {
        let n = self.slab.len();
        if n == 0 {
            return;
        }
        let mut cursor = self.probe_cursor as usize % n;
        let mut victim: Option<(u32, f64)> = None;
        let mut probed = 0;
        let want = EVICT_PROBES.min(self.flows.len());
        for _ in 0..n {
            if probed >= want {
                break;
            }
            let slot = &self.slab[cursor];
            if slot.live() {
                probed += 1;
                if victim.is_none_or(|(_, t)| slot.last_seen < t) {
                    victim = Some((cursor as u32, slot.last_seen));
                }
            }
            cursor = (cursor + 1) % n;
        }
        self.probe_cursor = cursor as u32;
        if let Some((h, _)) = victim {
            self.close_flow(h, CloseReason::CapacityEvicted);
        }
    }

    /// Scores a departing flow, queues the result and recycles its slot.
    /// Mirrors the batch path exactly, including the short-connection
    /// padding rule (repeat the final profile until one full window
    /// exists).
    fn close_flow(&mut self, h: u32, reason: CloseReason) {
        let hi = h as usize;
        // Any pending micro-batched work — this flow's staged packets
        // included — scores before finalization, so verdict content and
        // timing never depend on batching.
        self.flush_batch();
        // A flow evicted while still orientation-buffering scores its held
        // packets now, under the provisional (first-packet) orientation —
        // the same key the offline reassembler would use for a capture
        // with no SYN.
        if let Some(buffered) = self.slab[hi].pending.take() {
            for (_, q) in buffered.iter() {
                self.advance_one(hi, q);
            }
        }
        let slot = &mut self.slab[hi];
        let packets = slot.packets as usize;
        slot.window_errors
            .extend(self.scorer.pad(&self.resident, hi, packets));
        let scored = self
            .scorer
            .verdict(std::mem::take(&mut slot.window_errors), packets);
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
        // CanonicalKey is orientation-invariant, so the re-oriented key
        // still maps back to the entry `ingest` created.
        let ck = CanonicalKey::of_key(&self.slab[hi].key);
        let removed = self.flows.remove(&ck);
        debug_assert_eq!(removed, Some(h), "map entry must match the slot");
        self.cells.live_sync(self.flows.len() as u64);
        self.wheel.unlink(&mut self.slab, h);
        self.free_slot(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// engines, per-packet scoring. A caller that wants int8 or batching
    /// writes it in the config it builds.
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
        assert!(
            (stream.score - batch.score).abs() < 1e-6,
            "score drift: stream {} vs batch {}",
            stream.score,
            batch.score
        );
        assert_eq!(stream.peak_window, batch.peak_window);
        assert_eq!(stream.peak_packet, batch.peak_packet);
        assert_eq!(stream.window_errors.len(), batch.window_errors.len());
        for (s, b) in stream.window_errors.iter().zip(&batch.window_errors) {
            assert!((s - b).abs() < 1e-6, "window error drift: {s} vs {b}");
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

    /// `time_wait > 0`: an orderly close lingers (still counted live),
    /// then expires on the wheel as a TcpClose; a pure SYN reusing the
    /// tuple during the linger closes the old incarnation immediately.
    #[test]
    fn time_wait_linger_expires_on_the_wheel() {
        let clap = model();
        let conn = &traffic_gen::dataset(931, 1)[0];
        for eviction in [EvictionMode::Wheel, EvictionMode::Sweep] {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                time_wait: 5.0,
                sweep_interval: 1,
                eviction,
                ..StreamConfig::default()
            });
            for p in &conn.packets {
                scorer.push(p);
            }
            assert_eq!(
                scorer.live_flows(),
                1,
                "{eviction:?}: closed flow lingers in TIME_WAIT"
            );
            assert!(scorer.drain_closed().is_empty());
            // An unrelated packet far past the linger deadline expires it.
            let late = conn.packets.last().unwrap().timestamp + 60.0;
            scorer.push(&raw_packet((9, 9999), (8, 80), late));
            let closed = scorer.drain_closed();
            assert_eq!(closed.len(), 1);
            assert_eq!(closed[0].reason, CloseReason::TcpClose);
            assert_eq!(closed[0].packets, conn.len());
            assert_eq!(scorer.stats().time_wait_expired, 1);
            assert_scored_eq(&closed[0].scored, &clap.score_connection(conn));
        }

        // Tuple reuse: a pure SYN during the linger starts incarnation 2.
        let mut scorer = clap.stream_scorer_with(StreamConfig {
            time_wait: 300.0,
            sweep_interval: 1,
            ..StreamConfig::default()
        });
        for p in &conn.packets {
            scorer.push(p);
        }
        assert_eq!(scorer.live_flows(), 1);
        let t = conn.packets.last().unwrap().timestamp + 1.0;
        let v4 = |a: std::net::IpAddr| match a {
            std::net::IpAddr::V4(x) => x,
            std::net::IpAddr::V6(_) => unreachable!("test key is IPv4"),
        };
        let ip = Ipv4Header::new(v4(conn.key.client.addr), v4(conn.key.server.addr), 64);
        let mut tcp = TcpHeader::new(conn.key.client.port, conn.key.server.port, 77, 0);
        tcp.flags = TcpFlags::SYN;
        let syn = Packet::new(t, ip, tcp, Vec::new());
        scorer.push(&syn);
        let closed = scorer.drain_closed();
        assert_eq!(closed.len(), 1, "old incarnation closed by tuple reuse");
        assert_eq!(closed[0].reason, CloseReason::TcpClose);
        assert_eq!(closed[0].packets, conn.len());
        assert_eq!(scorer.live_flows(), 1, "the SYN opened incarnation 2");
    }

    /// Micro-batched streaming must be *byte-identical* to per-packet
    /// streaming: same closed-flow order, reasons and arrivals, bitwise
    /// equal window errors and scores — at f32 weights, int8 weights and
    /// int8 resident state, across batch capacities.
    #[test]
    fn microbatched_streaming_is_bitwise_per_packet() {
        let clap = model();
        let corpus = traffic_gen::dataset(937, 10);
        let run = |microbatch: usize, quant, resident| {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                microbatch,
                microbatch_wait: 7,
                quant,
                resident,
                ..StreamConfig::default()
            });
            let longest = corpus.iter().map(Connection::len).max().unwrap();
            for i in 0..longest {
                for conn in &corpus {
                    if let Some(p) = conn.packets.get(i) {
                        scorer.push(p);
                    }
                }
            }
            scorer.finish()
        };
        for (quant, resident) in [
            (QuantMode::Off, ResidentMode::F32),
            (QuantMode::Int8, ResidentMode::F32),
            (QuantMode::Int8, ResidentMode::Int8),
        ] {
            let base = run(0, quant, resident);
            for cap in [2usize, 4, 16] {
                let batched = run(cap, quant, resident);
                assert_eq!(base.len(), batched.len(), "cap {cap}");
                for (a, b) in base.iter().zip(&batched) {
                    assert_eq!(a.key, b.key, "close order (cap {cap})");
                    assert_eq!(a.packets, b.packets);
                    assert_eq!(a.reason, b.reason);
                    assert_eq!(a.arrival, b.arrival);
                    assert_eq!(
                        a.scored.window_errors, b.scored.window_errors,
                        "window errors must be bitwise equal (cap {cap})"
                    );
                    assert_eq!(a.scored.score.to_bits(), b.scored.score.to_bits());
                    assert_eq!(a.scored.peak_window, b.scored.peak_window);
                    assert_eq!(a.scored.peak_packet, b.scored.peak_packet);
                }
            }
        }
    }

    /// The flush triggers: capacity, the latency budget and
    /// `flush_pending` — and the *non*-trigger: a same-flow burst
    /// chains instead of flushing. All visible through the occupancy
    /// histogram.
    #[test]
    fn microbatch_flush_triggers_and_occupancy() {
        let clap = model();
        let mut scorer = clap.stream_scorer_with(StreamConfig {
            microbatch: 4,
            microbatch_wait: 100,
            teardown_on_close: false,
            ..StreamConfig::default()
        });
        // Three distinct flows: under capacity, everything stays pending.
        for i in 0..3u8 {
            scorer.push(&raw_packet(
                (i + 1, 1000 + u16::from(i)),
                (99, 80),
                0.1 * f64::from(i),
            ));
        }
        assert_eq!(scorer.batch_occupancy().iter().sum::<u64>(), 0);
        scorer.flush_pending();
        assert_eq!(scorer.batch_occupancy()[2], 1, "one flush of 3 rows");
        // Back-to-back packets of one flow chain instead of flushing:
        // nothing drains until the explicit flush, which replays the
        // chain in packet order as one 2-row batch.
        scorer.push(&raw_packet((1, 1000), (99, 80), 1.0));
        scorer.push(&raw_packet((1, 1000), (99, 80), 1.1));
        assert_eq!(
            scorer.batch_occupancy()[0],
            0,
            "a same-flow burst must not force a flush"
        );
        scorer.flush_pending();
        assert_eq!(scorer.batch_occupancy()[1], 1, "chained flush of 2 rows");
        // Capacity flush: 4 more distinct flows fill the batch.
        for i in 10..14u8 {
            scorer.push(&raw_packet(
                (i + 1, 2000 + u16::from(i)),
                (99, 80),
                2.0 + 0.1 * f64::from(i),
            ));
        }
        assert_eq!(scorer.batch_occupancy()[3], 1, "capacity flush of 4 rows");
        // Latency budget: one pending row flushes after `wait` packets.
        let mut lazy = clap.stream_scorer_with(StreamConfig {
            microbatch: 64,
            microbatch_wait: 2,
            teardown_on_close: false,
            ..StreamConfig::default()
        });
        lazy.push(&raw_packet((1, 1000), (99, 80), 0.0));
        lazy.push(&raw_packet((2, 1001), (99, 80), 0.1));
        assert_eq!(lazy.batch_occupancy().iter().sum::<u64>(), 0);
        lazy.push(&raw_packet((3, 1002), (99, 80), 0.2));
        assert_eq!(lazy.batch_occupancy()[1], 1, "age-budget flush of 2 rows");
        // Finalization drains everything pending.
        let closed = lazy.finish();
        assert_eq!(closed.len(), 3);
        assert!(closed.iter().all(|c| c.scored.score.is_finite()));
    }

    /// The wheel survives huge clock jumps (multi-level cascades) and
    /// still evicts exactly the idle flows, matching the sweep reference.
    #[test]
    fn wheel_handles_large_clock_jumps() {
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
}
