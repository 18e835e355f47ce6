//! Live telemetry plane for the CLAP engine: wait-free runtime counters
//! with coherent mid-run snapshots, per-stage latency histograms
//! ([`hist`]) and human-readable renderers ([`render`]).
//!
//! The engine's supervision and flow-table counters used to be plain
//! integers readable only after a run finished. This crate re-homes them
//! onto shared atomic cells that the dispatcher and workers update
//! *wait-free* mid-run (plain relaxed stores, no RMW, no retry loop),
//! while any other thread can take a [`TelemetryHub::snapshot`] that
//! satisfies the exact accounting invariant
//!
//! ```text
//! pushed == scored + dropped + quarantined      (per shard, every instant)
//! ```
//!
//! at *every snapshot instant* — not just at teardown.
//!
//! # One counter record
//!
//! The three writer regions below feed one record, [`ShardSnapshot`]: a
//! shard's dispatch and worker counters, its flow table's
//! [`StreamStats`] and its stage summaries. A hub snapshot is a
//! `Vec<ShardSnapshot>`; a sharded run's per-shard stats are the same
//! type, the delta [`ShardSnapshot::since`] takes against the snapshot
//! before the run; a single flow table's stats are the `StreamStats`
//! alone. [`ShardSnapshot::check_accounting`] checks any of them,
//! [`ShardSnapshot::total`] rolls them up, [`render::render_snapshot`]
//! prints them, and serde derives make an export their JSON.
//!
//! # Design note: memory-ordering contract
//!
//! ## Single-writer regions under per-region seqlocks
//!
//! Every counter belongs to exactly one *writer region*, and each region
//! has exactly one writer thread at any time:
//!
//! * [`DispatchCells`] — written by the dispatch loop (packets addressed,
//!   packets shed, backpressure stalls).
//! * [`WorkerCells`] — written by the shard's worker thread (packets
//!   scored / quarantined / lost in flight, restarts, flows closed).
//! * [`StreamCells`] — written by whichever thread owns the shard's
//!   `StreamScorer` (flow-table gauges and close-reason counters).
//!
//! Writer handoff between runs is synchronized externally (thread
//! spawn/join), so "single writer" holds across a region's whole life.
//! Each region pairs its counters with a sequence word and uses the
//! classic single-writer seqlock recipe:
//!
//! * **Writer** (wait-free): load `seq` relaxed, store `seq+1` (odd,
//!   relaxed), `fence(Release)`, perform the counter stores (relaxed),
//!   store `seq+2` (even, Release). The release fence keeps the counter
//!   stores from becoming visible before the odd store; the final release
//!   store keeps them from becoming visible after the even store. There
//!   is no CAS and no retry: the writer never waits on readers.
//! * **Reader** (lock-free): load `seq` Acquire; if even, load the
//!   counters relaxed, `fence(Acquire)`, re-load `seq` relaxed; if
//!   unchanged the read is an atomically-consistent cut of the region,
//!   else retry. Torn reads are *detected and retried*, never returned.
//!
//! Write sections contain only atomic stores — nothing that can panic —
//! so a region can never be left with a stuck odd sequence.
//!
//! ## Why the invariant is exact at every cut
//!
//! `pushed` is not derived; it is a real counter bumped *in the same
//! write section* as the outcome that accounts for the packet:
//!
//! * worker region: `scored()`, `quarantined()` and
//!   `dropped_in_flight()` each bump their outcome counter *and*
//!   `pushed` in one section, so `pushed_w == scored + quarantined +
//!   dropped_w` holds in every consistent cut of the region;
//! * dispatch region: `shed()` bumps `dropped` *and* `pushed` in one
//!   section, so `pushed_d == dropped_d` in every cut.
//!
//! A snapshot combines one consistent cut per region, and the invariant
//! holds within each region's cut separately, so it holds for the sums.
//! The check is *non-vacuous*: without the seqlock a reader could observe
//! `scored` incremented but `pushed` not yet (they are distinct relaxed
//! stores), and a missed or doubled bump anywhere breaks the equality —
//! so [`ShardSnapshot::check_accounting`] genuinely validates both
//! the snapshot protocol and the instrumentation.
//!
//! ## `dispatched ≥ pushed`: worker-before-dispatch read order
//!
//! `dispatched` counts every packet the dispatcher addressed to the
//! shard (delivered *or* shed), bumped before the delivery attempt.
//! [`TelemetryHub::snapshot`] reads the **worker region first, then the
//! dispatch region**. Any packet in the worker cut's `pushed` was popped
//! from the ring, so its `dispatched` bump happened-before the worker's
//! counter bump (dispatcher program order + the ring's release/acquire
//! handoff), which happened-before our worker read — and therefore is
//! contained in the later dispatch cut. Within the dispatch cut itself,
//! `dispatched ≥ pushed_d + deliveries`. Hence `dispatched ≥ pushed_w +
//! pushed_d` at every snapshot, and `in_flight = dispatched - pushed` is
//! a meaningful gauge.
//!
//! Gauges (`live_flows`) are published values, not monotone counters;
//! `flows_peak` is monotone and raised in (or before) the same section
//! that raises `live_flows`, so `flows_peak ≥ live_flows` in every cut.
//!
//! ## Cost
//!
//! Each cell region is `#[repr(align(64))]` so the dispatcher's and each
//! worker's counters live on distinct cache lines with no false sharing.
//! An event is two relaxed stores to the (exclusively owned, cached)
//! sequence word plus one or two relaxed counter stores — a few ns, and
//! wait-free by construction. See `hist` for the latency-clock scheme.

pub mod hist;
pub mod render;

pub use hist::{LapClock, Stage, StageHists, StageRecorder, StageSummary};

use serde::{Deserialize, Serialize};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// A single-writer counter cell. The writer uses plain load+store (no
/// RMW) — coherence is provided by the enclosing region's [`SeqLock`].
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    #[inline]
    fn add(&self, n: u64) {
        let v = self.0.load(Ordering::Relaxed);
        self.0.store(v.wrapping_add(n), Ordering::Relaxed);
    }

    #[inline]
    fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    fn raise(&self, v: u64) {
        if v > self.0.load(Ordering::Relaxed) {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Single-writer seqlock guarding one counter region (see the module
/// docs for the full recipe and ordering argument). The writer is
/// wait-free; readers retry until they observe a stable even sequence.
///
/// Contract: at most one thread writes the guarded region at a time
/// (enforced by the engine's thread structure, not by this type —
/// concurrent writers would corrupt the sequence pairing and readers
/// could then validate torn cuts).
#[derive(Debug, Default)]
struct SeqLock {
    seq: AtomicU64,
}

impl SeqLock {
    /// Runs `section` (atomic stores only — must not panic) as one
    /// write section. Wait-free.
    #[inline]
    fn write(&self, section: impl FnOnce()) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        section();
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Runs `read` until it observes a stable even sequence, returning
    /// an atomically-consistent cut of the region. Lock-free.
    #[inline]
    fn read<T>(&self, read: impl Fn() -> T) -> T {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let out = read();
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return out;
                }
            }
            std::hint::spin_loop();
        }
    }
}

/// Dispatch-loop counter region for one shard: every packet the
/// dispatcher addressed here is either delivered to the worker or shed
/// (`shed` accounts it as pushed+dropped on the spot).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct DispatchCells {
    seq: SeqLock,
    dispatched: Counter,
    pushed: Counter,
    dropped: Counter,
    full_waits: Counter,
}

/// One consistent cut of a [`DispatchCells`] region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    pub dispatched: u64,
    /// Packets this region fully accounted for (all of them shed — a
    /// delivered packet is accounted by the worker when it pops it).
    pub pushed: u64,
    pub dropped: u64,
    pub full_waits: u64,
}

impl DispatchCells {
    /// One packet addressed to this shard (call before the delivery
    /// attempt; see the module docs' `dispatched ≥ pushed` argument).
    #[inline]
    pub fn dispatched_inc(&self) {
        self.seq.write(|| self.dispatched.add(1));
    }

    /// One packet shed (overload policy, watchdog cutoff, or dead-worker
    /// ring drain): accounted as pushed+dropped in one write section.
    #[inline]
    pub fn shed(&self) {
        self.shed_many(1);
    }

    /// `n` packets shed at once (dead-worker ring drain).
    #[inline]
    pub fn shed_many(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.seq.write(|| {
            self.dropped.add(n);
            self.pushed.add(n);
        });
    }

    /// One backpressure stall (ring full, dispatcher had to wait).
    #[inline]
    pub fn full_wait(&self) {
        self.seq.write(|| self.full_waits.add(1));
    }

    /// Takes one consistent cut of this region.
    pub fn read(&self) -> DispatchCounts {
        self.seq.read(|| DispatchCounts {
            dispatched: self.dispatched.get(),
            pushed: self.pushed.get(),
            dropped: self.dropped.get(),
            full_waits: self.full_waits.get(),
        })
    }
}

/// Worker-thread counter region for one shard: the outcome of every
/// packet the worker consumed, plus restart/close accounting and the
/// watchdog heartbeat.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct WorkerCells {
    seq: SeqLock,
    pushed: Counter,
    scored: Counter,
    quarantined: Counter,
    dropped: Counter,
    restarts: Counter,
    flows_closed: Counter,
    /// Progress signal for the stuck-shard watchdog. Deliberately
    /// *outside* the seqlock: it is read alone, has no pairing
    /// constraint, and must stay a single relaxed store per packet.
    heartbeat: Counter,
}

/// One consistent cut of a [`WorkerCells`] region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounts {
    /// Packets this region fully accounted for
    /// (`== scored + quarantined + dropped` in every cut).
    pub pushed: u64,
    pub scored: u64,
    pub quarantined: u64,
    pub dropped: u64,
    pub restarts: u64,
    pub flows_closed: u64,
}

impl WorkerCells {
    /// One packet scored.
    #[inline]
    pub fn scored(&self) {
        self.seq.write(|| {
            self.scored.add(1);
            self.pushed.add(1);
        });
    }

    /// One packet quarantined after a supervised scoring panic (which
    /// also rebuilds the flow table: restarts is bumped alongside).
    #[inline]
    pub fn quarantined(&self) {
        self.seq.write(|| {
            self.quarantined.add(1);
            self.restarts.add(1);
            self.pushed.add(1);
        });
    }

    /// One flow-table rebuild *not* tied to a quarantined packet (the
    /// end-of-stream flow dump or flush panicked).
    #[inline]
    pub fn restart(&self) {
        self.seq.write(|| self.restarts.add(1));
    }

    /// One in-flight packet lost to a thread-killing panic.
    #[inline]
    pub fn dropped_in_flight(&self) {
        self.seq.write(|| {
            self.dropped.add(1);
            self.pushed.add(1);
        });
    }

    /// One flow finalized (any close reason).
    #[inline]
    pub fn flow_closed(&self) {
        self.seq.write(|| self.flows_closed.add(1));
    }

    /// Bumps the watchdog heartbeat (once per consumed packet).
    #[inline]
    pub fn beat(&self) {
        self.heartbeat.add(1);
    }

    /// Current heartbeat reading (relaxed; a progress signal only).
    #[inline]
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat.get()
    }

    /// Takes one consistent cut of this region (heartbeat excluded —
    /// see [`WorkerCells::heartbeat`]).
    pub fn read(&self) -> WorkerCounts {
        self.seq.read(|| WorkerCounts {
            pushed: self.pushed.get(),
            scored: self.scored.get(),
            quarantined: self.quarantined.get(),
            dropped: self.dropped.get(),
            restarts: self.restarts.get(),
            flows_closed: self.flows_closed.get(),
        })
    }
}

/// Flow-table counter region: gauges (`live_flows`) and close-reason
/// counters, written by the thread that owns the `StreamScorer`. Shared
/// as an `Arc` so a scorer built inside a worker thread and the hub both
/// hold it, and so the counters survive the worker's death.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct StreamCells {
    seq: SeqLock,
    live_flows: Counter,
    flows_peak: Counter,
    evicted_idle: Counter,
    evicted_capacity: Counter,
    closed_tcp: Counter,
    length_capped: Counter,
    drained: Counter,
}

/// One consistent cut of a [`StreamCells`] region: a flow table's
/// lifetime counters (they survive a scorer reset) and its two gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Gauge: currently tracked flows (the published flow-table size).
    pub live_flows: u64,
    /// Peak concurrently tracked flows (a monotone high-water mark; the
    /// slab size, since slots are only allocated when the free list is
    /// empty).
    pub flows_peak: u64,
    /// Flows evicted by the idle timeout.
    pub evicted_idle: u64,
    /// Flows evicted to admit new ones at the table's flow capacity.
    pub evicted_capacity: u64,
    /// Flows finalized by TCP teardown.
    pub closed_tcp: u64,
    /// Flows finalized at the per-flow length cap.
    pub length_capped: u64,
    /// Flows flushed by the end-of-stream drain.
    pub drained: u64,
}

impl StreamCells {
    /// A flow entered the table: publishes the new table size and raises
    /// the high-water mark in one section (`slab_len ≥ live`, so
    /// `flows_peak ≥ live_flows` holds in every cut).
    #[inline]
    pub fn flow_opened(&self, live: u64, slab_len: u64) {
        self.seq.write(|| {
            self.live_flows.set(live);
            self.flows_peak.raise(slab_len);
        });
    }

    /// Publishes the current flow-table size (call after removals and
    /// on scorer reset/attach).
    #[inline]
    pub fn live_sync(&self, live: u64) {
        self.seq.write(|| self.live_flows.set(live));
    }

    /// One flow evicted by the idle timeout.
    #[inline]
    pub fn evicted_idle(&self) {
        self.seq.write(|| self.evicted_idle.add(1));
    }

    /// One flow evicted to admit a new one at capacity.
    #[inline]
    pub fn evicted_capacity(&self) {
        self.seq.write(|| self.evicted_capacity.add(1));
    }

    /// One flow finalized by TCP teardown.
    #[inline]
    pub fn closed_tcp(&self) {
        self.seq.write(|| self.closed_tcp.add(1));
    }

    /// One flow finalized at the per-flow length cap.
    #[inline]
    pub fn length_capped(&self) {
        self.seq.write(|| self.length_capped.add(1));
    }

    /// One flow flushed by the end-of-stream drain.
    #[inline]
    pub fn drained(&self) {
        self.seq.write(|| self.drained.add(1));
    }

    /// Takes one consistent cut of this region.
    pub fn read(&self) -> StreamStats {
        self.seq.read(|| StreamStats {
            live_flows: self.live_flows.get(),
            flows_peak: self.flows_peak.get(),
            evicted_idle: self.evicted_idle.get(),
            evicted_capacity: self.evicted_capacity.get(),
            closed_tcp: self.closed_tcp.get(),
            length_capped: self.length_capped.get(),
            drained: self.drained.get(),
        })
    }
}

/// One shard's full set of telemetry regions.
#[derive(Debug, Default)]
pub struct ShardCells {
    /// Written by the dispatch loop.
    pub dispatch: DispatchCells,
    /// Written by the shard's worker thread.
    pub worker: WorkerCells,
    /// Written by the owner of the shard's `StreamScorer` (shared so the
    /// scorer can be built inside the worker thread).
    pub stream: Arc<StreamCells>,
    /// Per-stage latency histograms (internally thread-safe).
    pub stages: Arc<StageHists>,
}

/// The process-wide telemetry plane: one [`ShardCells`] per shard,
/// lifetime-cumulative (counters are never reset; a run's delta is
/// [`ShardSnapshot::since`] the snapshot taken before it).
#[derive(Debug)]
pub struct TelemetryHub {
    shards: Vec<ShardCells>,
}

impl TelemetryHub {
    /// Builds a hub for `shards` shards (all counters zero).
    pub fn new(shards: usize) -> Self {
        TelemetryHub {
            shards: (0..shards).map(|_| ShardCells::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's cell regions.
    pub fn shard(&self, i: usize) -> &ShardCells {
        &self.shards[i]
    }

    /// Takes a coherent snapshot, one [`ShardSnapshot`] per shard, from
    /// any thread while packets flow. Per shard, the worker region is
    /// read *before* the dispatch region (see the module docs: this is
    /// what makes `dispatched ≥ pushed` certain at every snapshot).
    pub fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|c| {
                let w = c.worker.read();
                let heartbeat = c.worker.heartbeat();
                let d = c.dispatch.read();
                let pushed = w.pushed + d.pushed;
                ShardSnapshot {
                    pushed,
                    scored: w.scored,
                    dropped: w.dropped + d.dropped,
                    quarantined: w.quarantined,
                    dispatched: d.dispatched,
                    in_flight: d.dispatched.saturating_sub(pushed),
                    restarts: w.restarts,
                    flows_closed: w.flows_closed,
                    full_waits: d.full_waits,
                    heartbeat,
                    stream: c.stream.read(),
                    stages: c.stages.summaries(),
                }
            })
            .collect()
    }
}

/// One shard's counters: a hub snapshot's cut, or — through
/// [`ShardSnapshot::since`] — what one run added to it. Every field is a
/// monotone counter except the gauges `in_flight`, `stream.live_flows`
/// and the high-water mark `stream.flows_peak`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Packets fully accounted for: `scored + dropped + quarantined`,
    /// exactly, at every snapshot instant.
    pub pushed: u64,
    pub scored: u64,
    /// Packets shed: by the overload policy, by the watchdog cutting off
    /// a stuck shard, or lost to a dying worker (its in-flight packet
    /// and undrained ring).
    pub dropped: u64,
    /// Packets quarantined after a supervised scoring panic.
    pub quarantined: u64,
    /// Packets the dispatcher addressed to this shard (`≥ pushed`).
    pub dispatched: u64,
    /// Gauge: `dispatched - pushed` — packets in the ring or being
    /// scored right now.
    pub in_flight: u64,
    /// Flow-table rebuilds: one per quarantine, plus one each if the
    /// end-of-stream flow dump or flush panicked.
    pub restarts: u64,
    /// Flows finalized (all close reasons).
    pub flows_closed: u64,
    /// Times the dispatcher found the ring full and had to wait — the
    /// backpressure signal, counted once per stalled push.
    pub full_waits: u64,
    pub heartbeat: u64,
    /// The shard's flow-table counters and gauges.
    pub stream: StreamStats,
    /// Per-stage latency summaries, indexed by [`Stage`] discriminant.
    pub stages: [StageSummary; hist::STAGES],
}

impl ShardSnapshot {
    /// The monotone counters, name + value, in a fixed order (used by
    /// the monotonicity check; gauges excluded).
    pub fn counters(&self) -> [(&'static str, u64); 15] {
        let st = &self.stream;
        [
            ("pushed", self.pushed),
            ("scored", self.scored),
            ("dropped", self.dropped),
            ("quarantined", self.quarantined),
            ("dispatched", self.dispatched),
            ("restarts", self.restarts),
            ("flows_closed", self.flows_closed),
            ("full_waits", self.full_waits),
            ("heartbeat", self.heartbeat),
            ("flows_peak", st.flows_peak),
            ("evicted_idle", st.evicted_idle),
            ("evicted_capacity", st.evicted_capacity),
            ("closed_tcp", st.closed_tcp),
            ("length_capped", st.length_capped),
            ("drained", st.drained),
        ]
    }

    /// `f` applied to each pair of same-named counters and gauges of
    /// `self` and `o`; the stage summaries are `self`'s.
    fn zip_with(&self, o: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let (s, t) = (&self.stream, &o.stream);
        ShardSnapshot {
            pushed: f(self.pushed, o.pushed),
            scored: f(self.scored, o.scored),
            dropped: f(self.dropped, o.dropped),
            quarantined: f(self.quarantined, o.quarantined),
            dispatched: f(self.dispatched, o.dispatched),
            in_flight: f(self.in_flight, o.in_flight),
            restarts: f(self.restarts, o.restarts),
            flows_closed: f(self.flows_closed, o.flows_closed),
            full_waits: f(self.full_waits, o.full_waits),
            heartbeat: f(self.heartbeat, o.heartbeat),
            stream: StreamStats {
                live_flows: f(s.live_flows, t.live_flows),
                flows_peak: f(s.flows_peak, t.flows_peak),
                evicted_idle: f(s.evicted_idle, t.evicted_idle),
                evicted_capacity: f(s.evicted_capacity, t.evicted_capacity),
                closed_tcp: f(s.closed_tcp, t.closed_tcp),
                length_capped: f(s.length_capped, t.length_capped),
                drained: f(s.drained, t.drained),
            },
            stages: self.stages,
        }
    }

    /// What this shard gained since `base`, an earlier snapshot of the
    /// same hub slot: the counters are subtracted; the gauges
    /// (`in_flight`, `stream.live_flows`, `stream.flows_peak`) and the
    /// stage summaries — percentiles do not subtract — are `self`'s.
    pub fn since(&self, base: &Self) -> Self {
        let base = ShardSnapshot {
            in_flight: 0,
            stream: StreamStats {
                live_flows: 0,
                flows_peak: 0,
                ..base.stream
            },
            ..*base
        };
        self.zip_with(&base, |e, b| e - b)
    }

    /// Every counter and gauge summed across `shards`, with empty stage
    /// summaries: the whole-run roll-up.
    pub fn total(shards: &[Self]) -> Self {
        shards
            .iter()
            .fold(Self::default(), |t, s| t.zip_with(s, |a, b| a + b))
    }

    /// [`ShardSnapshot::total`] under its roll-up name (`ShardHealth::of`
    /// in `clap-core`).
    pub fn of(shards: &[Self]) -> Self {
        Self::total(shards)
    }

    /// Verifies, per shard, the invariants every snapshot — mid-run or
    /// at rest — and every run's delta satisfies:
    ///
    /// * `pushed == scored + dropped + quarantined` (exact);
    /// * `dispatched ≥ pushed`;
    /// * `flows_peak ≥ live_flows`.
    ///
    /// The error names the first violating shard.
    pub fn check_accounting(shards: &[Self]) -> Result<(), String> {
        for (i, s) in shards.iter().enumerate() {
            let outcomes = s.scored + s.dropped + s.quarantined;
            if s.pushed != outcomes {
                return Err(format!(
                    "shard {i}: pushed {} != scored {} + dropped {} + quarantined {}",
                    s.pushed, s.scored, s.dropped, s.quarantined
                ));
            }
            if s.dispatched < s.pushed {
                return Err(format!(
                    "shard {i}: dispatched {} < pushed {}",
                    s.dispatched, s.pushed
                ));
            }
            if s.stream.flows_peak < s.stream.live_flows {
                return Err(format!(
                    "shard {i}: flows_peak {} < live_flows {}",
                    s.stream.flows_peak, s.stream.live_flows
                ));
            }
        }
        Ok(())
    }

    /// Verifies that every monotone counter (gauges excluded) moved
    /// forward — or stood still — between two snapshots of the same hub.
    pub fn check_monotonic(earlier: &[Self], later: &[Self]) -> Result<(), String> {
        if earlier.len() != later.len() {
            return Err(format!(
                "shard count changed: {} -> {}",
                earlier.len(),
                later.len()
            ));
        }
        for (i, (a, b)) in earlier.iter().zip(later).enumerate() {
            for ((name, va), (_, vb)) in a.counters().iter().zip(b.counters().iter()) {
                if vb < va {
                    return Err(format!("shard {i}: {name} went backwards: {va} -> {vb}"));
                }
            }
            for (stage, (sa, sb)) in a.stages.iter().zip(b.stages.iter()).enumerate() {
                if sb.count < sa.count || sb.max_ns < sa.max_ns {
                    return Err(format!("shard {i}: stage {stage} histogram went backwards"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn event_methods_keep_the_accounting_exact() {
        let hub = TelemetryHub::new(2);
        let c = hub.shard(0);
        c.dispatch.dispatched_inc();
        c.dispatch.dispatched_inc();
        c.dispatch.dispatched_inc();
        c.worker.scored();
        c.worker.quarantined();
        c.dispatch.shed();
        c.dispatch.full_wait();
        c.worker.flow_closed();
        c.worker.beat();

        let snap = hub.snapshot();
        ShardSnapshot::check_accounting(&snap).expect("invariants");
        let s = &snap[0];
        assert_eq!(s.dispatched, 3);
        assert_eq!(s.pushed, 3);
        assert_eq!(s.scored, 1);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.restarts, 1, "quarantine implies a restart");
        assert_eq!(s.full_waits, 1);
        assert_eq!(s.flows_closed, 1);
        assert_eq!(s.heartbeat, 1);
        assert_eq!(snap[1], ShardSnapshot::default());
    }

    #[test]
    fn gauges_track_the_flow_table() {
        let hub = TelemetryHub::new(1);
        let st = &hub.shard(0).stream;
        st.flow_opened(1, 1);
        st.flow_opened(2, 2);
        st.closed_tcp();
        st.live_sync(1);
        let s = hub.snapshot();
        ShardSnapshot::check_accounting(&s).expect("invariants");
        assert_eq!(s[0].stream.live_flows, 1);
        assert_eq!(s[0].stream.flows_peak, 2);
        assert_eq!(s[0].stream.closed_tcp, 1);
    }

    #[test]
    fn since_subtracts_counters_and_keeps_gauges_raw() {
        let hub = TelemetryHub::new(1);
        let c = hub.shard(0);
        let st = &c.stream;
        for _ in 0..3 {
            c.dispatch.dispatched_inc();
        }
        c.worker.scored();
        st.flow_opened(1, 1);
        st.flow_opened(2, 2);
        st.closed_tcp();
        st.live_sync(1);
        c.stages.record(Stage::Gru, 100);
        let base = hub.snapshot()[0];
        assert_eq!(base.in_flight, 2);

        c.worker.scored();
        c.dispatch.shed();
        c.dispatch.full_wait();
        c.worker.flow_closed();
        st.closed_tcp();
        st.live_sync(0);
        c.stages.record(Stage::Gru, 300);
        let end = hub.snapshot()[0];
        let run = end.since(&base);

        // Counters: what the second half added.
        assert_eq!(run.dispatched, 0);
        assert_eq!(run.pushed, 2);
        assert_eq!(run.scored, 1);
        assert_eq!(run.dropped, 1);
        assert_eq!(run.full_waits, 1);
        assert_eq!(run.flows_closed, 1);
        assert_eq!(run.stream.closed_tcp, 1);
        // Gauges, the high-water mark and the stage summaries: raw.
        assert_eq!(run.in_flight, 0);
        assert_eq!(run.stream.live_flows, 0);
        assert_eq!(run.stream.flows_peak, 2);
        assert_eq!(run.stages, end.stages);
        assert_eq!(run.stages[Stage::Gru.index()].count, 2);

        // A run's delta rolls up like any snapshot.
        let total = ShardSnapshot::total(&[run, run]);
        assert_eq!((total.pushed, total.scored, total.dropped), (4, 2, 2));
        assert_eq!(total.stream.flows_peak, 4);
        assert_eq!(ShardSnapshot::of(&[run, run]), total);
    }

    #[test]
    fn in_flight_counts_undelivered_packets() {
        let hub = TelemetryHub::new(1);
        let c = hub.shard(0);
        for _ in 0..5 {
            c.dispatch.dispatched_inc();
        }
        c.worker.scored();
        c.worker.scored();
        c.dispatch.shed();
        let s = hub.snapshot();
        ShardSnapshot::check_accounting(&s).expect("invariants");
        assert_eq!(s[0].in_flight, 2);
    }

    #[test]
    fn invariant_check_rejects_cooked_books() {
        let mut snap = vec![ShardSnapshot::default(); 2];
        snap[1].pushed = 1;
        let err = ShardSnapshot::check_accounting(&snap).unwrap_err();
        assert!(err.contains("shard 1: pushed 1"), "{err}");

        snap[1].scored = 1;
        let err = ShardSnapshot::check_accounting(&snap).unwrap_err();
        assert!(err.contains("dispatched 0 < pushed 1"), "{err}");
        snap[1].dispatched = 1;
        ShardSnapshot::check_accounting(&snap).expect("books balance again");

        snap[1].stream.live_flows = 3;
        let err = ShardSnapshot::check_accounting(&snap).unwrap_err();
        assert!(err.contains("flows_peak"), "{err}");
    }

    #[test]
    fn monotonicity_check_catches_regressing_counters() {
        let hub = TelemetryHub::new(1);
        let a = hub.snapshot();
        hub.shard(0).worker.scored();
        let b = hub.snapshot();
        ShardSnapshot::check_monotonic(&a, &b).expect("forward is fine");
        let err = ShardSnapshot::check_monotonic(&b, &a).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    /// A writer thread hammers events while this thread snapshots: every
    /// snapshot must satisfy the invariants and be monotone w.r.t. the
    /// previous one. This is the in-crate version of the engine-level
    /// mid-run proptest, and it fails (probabilistically) if the seqlock
    /// is removed: `scored` and `pushed` are distinct relaxed stores a
    /// torn read would split.
    #[test]
    fn snapshots_stay_coherent_under_concurrent_writes() {
        let hub = Arc::new(TelemetryHub::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let c = hub.shard(0);
                let mut live = 0u64;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.dispatch.dispatched_inc();
                    match n % 4 {
                        0 => c.worker.scored(),
                        1 => c.worker.quarantined(),
                        2 => c.dispatch.shed(),
                        _ => c.worker.dropped_in_flight(),
                    }
                    if n.is_multiple_of(3) {
                        live += 1;
                        c.stream.flow_opened(live, live);
                    } else if live > 0 {
                        live -= 1;
                        c.stream.closed_tcp();
                        c.stream.live_sync(live);
                    }
                    c.worker.beat();
                    n += 1;
                }
                n
            })
        };

        let mut prev = hub.snapshot();
        for _ in 0..20_000 {
            let snap = hub.snapshot();
            ShardSnapshot::check_accounting(&snap).expect("mid-run invariants");
            ShardSnapshot::check_monotonic(&prev, &snap).expect("monotone");
            prev = snap;
        }
        stop.store(true, Ordering::Relaxed);
        let total = writer.join().expect("writer");

        let fin = hub.snapshot();
        ShardSnapshot::check_accounting(&fin).expect("final invariants");
        assert_eq!(fin[0].dispatched, total);
        assert_eq!(fin[0].pushed, total, "all packets accounted");
    }
}
