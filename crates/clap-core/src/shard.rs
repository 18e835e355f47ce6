//! RSS-sharded multi-queue streaming front end — the multi-core
//! counterpart of [`StreamScorer`].
//!
//! The streaming engine is single-threaded by design: one flow table,
//! one ingest thread. [`ShardedStreamScorer`] scales that engine across
//! cores the way an RSS NIC scales a line-rate tap across receive queues:
//!
//! * **Symmetric hash partitioning.** Each packet is assigned to a shard
//!   by [`CanonicalKey::shard_of`] — the standard Toeplitz RSS function
//!   over the 4-tuple in *canonical* (order-normalized) form, so both
//!   directions of a flow land on the same shard and every shard owns its
//!   flows outright. No flow state is ever shared between workers; the
//!   per-shard engine is the unmodified [`StreamScorer`], which is what
//!   makes the sharded path exactly as trustworthy as the single-threaded
//!   one (and lets the property tests pin sharded == unsharded bitwise).
//! * **Bounded SPSC ingest queues.** The dispatch thread pushes `(arrival
//!   index, packet)` pairs into one bounded single-producer/single-consumer
//!   ring per shard ([`spsc`]). What happens when a ring is full is the
//!   configured [`OverloadPolicy`] (see below); the default `Block`
//!   applies backpressure to the dispatcher (spin-then-yield, counted per
//!   shard in [`ShardStats::full_waits`]) rather than dropping packets or
//!   growing without bound — the ingest path can stall, but it can never
//!   lose a packet or exhaust memory.
//! * **Per-shard policy, per-shard clocks.** Every shard runs its own
//!   [`StreamConfig`]: idle sweeps, capacity probing and TCP-teardown
//!   finalization fire per shard exactly as in the unsharded engine. One
//!   deliberate divergence (the same one a real multi-queue NIC
//!   deployment has — each queue's conntrack ages independently): a
//!   shard's clock and sweep cadence advance only with *its own*
//!   packets, so *where idle-timeout splits land* can depend on the
//!   partition. In exchange, no cross-shard synchronization exists at
//!   all.
//! * **Stable merged output.** The dispatcher hands each packet's global
//!   arrival index to the per-shard scorer
//!   ([`StreamScorer::push_tagged`]), which carries each flow's
//!   first-packet index on [`ClosedFlow::arrival`] — through restarts and
//!   orient-buffer replays — so workers keep no flow bookkeeping of their
//!   own; [`ShardedRun::verdicts`] is sorted by that index. The merged order is therefore *order of
//!   first appearance in the stream* — the same order
//!   [`net_packet::assemble_connections`] returns — and is a pure
//!   function of (input stream, shard count): independent of queue
//!   capacities and thread scheduling, so any replay is reproducible
//!   byte for byte. Output is additionally independent of the shard
//!   count itself whenever no idle-timeout eviction fires (teardown,
//!   capacity and length-cap policies are all per-flow) — in particular
//!   for any capture shorter than [`StreamConfig::idle_timeout`], like
//!   the checked-in regression capture; with idle evictions in play,
//!   per-shard clocks may split long-quiet flows at different packets
//!   than the single-threaded engine would (see above).
//!
//! # Failure modes & overload policies
//!
//! The engine is *supervised*: it keeps scoring N-1 shards when one
//! fails, sheds load deterministically when it cannot keep up, and
//! accounts for every packet exactly once no matter what.
//!
//! * **Panic isolation.** Each worker scores packets inside an unwind
//!   barrier. A panic while scoring quarantines the offending
//!   packet ([`ShardedRun::quarantined`] logs shard, flow key and global
//!   arrival index), rebuilds that shard's flow table from scratch
//!   ([`StreamScorer::reset`], counted in [`ShardStats::restarts`]) and
//!   the run completes. Because flows never span shards, the other
//!   shards' verdicts are byte-identical to a fault-free run.
//! * **Hard failures.** A panic that escapes the supervised region kills
//!   the worker;
//!   [`try_score_stream`](ShardedStreamScorer::try_score_stream) then
//!   returns [`ShardRunError`] naming the dead shard and carrying the
//!   surviving shards' verdicts and *every* shard's stats (the dead
//!   shard's counters live in shared telemetry and survive it).
//!   [`score_stream`](ShardedStreamScorer::score_stream) panics on hard
//!   failures, preserving the pre-supervision contract.
//! * **Overload policies** ([`OverloadPolicy`], consulted on ring-full):
//!   `Block` (default) spins until space frees — zero loss, bitwise
//!   determinism, unbounded dispatch latency. `DropNewest` sheds the
//!   packet that found the ring full — bounded latency, loss counted in
//!   [`ShardStats::dropped`]. Under `DropNewest`, *which* packets are
//!   shed depends on real ring occupancy, i.e. on thread scheduling —
//!   only `Block` keeps bitwise run-to-run determinism. (The fault
//!   harness's forced bursts are deterministic, which is how the shed
//!   path is tested; see [`fault`].)
//! * **Accounting invariant.** For every shard, exactly:
//!   `pushed == packets + dropped + quarantined`. Every packet the
//!   dispatcher addressed to a shard is scored, shed, or quarantined —
//!   including packets lost to a dying worker (its in-flight packet and
//!   its undrained ring are counted into `dropped`).
//! * **Stuck-shard watchdog.** A shard whose ring stays full while its
//!   progress heartbeat is frozen for [`ShardConfig::watchdog_limit`]
//!   consecutive dispatcher wait-iterations is declared stuck: the
//!   dispatcher stops feeding it (shedding its packets into `dropped`)
//!   and reports it in the run's [`ShardRunError`]. A merely *slow*
//!   shard keeps its heartbeat advancing and is never flagged. If a
//!   stuck worker later recovers, its verdicts are still merged; the
//!   failure report stands.
//! * **Fault injection.** [`fault::FaultPlan`] injects panics, hard
//!   kills, stalls, forced ring-full bursts and malformed packets at
//!   seed-deterministic arrivals — same plan, same stream, same outcome
//!   — so every path above is testable (see the `fault_*` tests and the
//!   proptest suites).
//!
//! ```
//! use clap_core::{Clap, ClapConfig, ShardConfig};
//!
//! let benign = traffic_gen::dataset(42, 40);
//! let (clap, _) = Clap::train(&benign, &ClapConfig::ci());
//!
//! // One interleaved stream over all flows, as a tap would deliver it.
//! let mut stream: Vec<&net_packet::Packet> =
//!     benign[..4].iter().flat_map(|c| c.packets.iter()).collect();
//! stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
//!
//! let sharded = clap.sharded_scorer_with(ShardConfig {
//!     shards: 2,
//!     ..ShardConfig::default()
//! });
//! let run = sharded.score_stream(stream.iter().copied());
//! assert_eq!(run.verdicts.len(), 4);
//! assert!(run.verdicts.iter().all(|v| v.flow.scored.score.is_finite()));
//! assert!(run.stats.iter().all(|s| s.dropped == 0 && s.quarantined == 0));
//! ```
//!
//! The module is three files: this one (configs, the run's result types
//! and [`try_score_stream`](ShardedStreamScorer::try_score_stream), which
//! reads spawn → offer each packet → join → stats → merge), `dispatch`
//! (ring-full policy, watchdog) and `worker` (the supervised consume
//! loop); neither of the two knows what the other does with a packet.
//!
//! [`StreamScorer`]: crate::StreamScorer
//! [`StreamScorer::push_tagged`]: crate::StreamScorer::push_tagged
//! [`StreamScorer::reset`]: crate::StreamScorer::reset
//! [`CanonicalKey::shard_of`]: net_packet::CanonicalKey::shard_of

mod dispatch;
pub mod fault;
pub mod spsc;
pub mod supervise;
mod worker;

use crate::pipeline::Clap;
use crate::stream::{ClosedFlow, FlowEntry, StreamConfig, StreamStats};
use clap_telemetry::hist::Stage;
use clap_telemetry::{ShardSnapshot, StageRecorder, TelemetryHub};
use dispatch::Dispatcher;
pub use dispatch::OverloadPolicy;
use fault::FaultPlan;
// Only the tests name it here (through `super::*`).
#[cfg(test)]
use net_packet::CanonicalKey;
use net_packet::Packet;
use std::sync::Arc;
use supervise::{Quarantined, ShardFailure, ShardFailureKind, ShardRunError};

/// Partitioning and supervision policy for a [`ShardedStreamScorer`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker shards (≥ 1). Each shard owns one ingest queue,
    /// one [`StreamScorer`](crate::StreamScorer) flow table and one
    /// thread; the dispatch loop runs on the calling thread, so `shards`
    /// worker cores plus one dispatch core are busy at saturation.
    pub shards: usize,
    /// Capacity of each shard's SPSC ingest ring, in packets. Smaller
    /// rings bound ingest memory and latency tighter but backpressure the
    /// dispatcher sooner; correctness is unaffected either way.
    pub queue_capacity: usize,
    /// Flow-table policy applied *per shard* (each worker runs its own
    /// [`StreamScorer`](crate::StreamScorer) under this config). Note
    /// `max_flows` is therefore a per-shard bound: total tracked flows ≤
    /// `shards × max_flows`.
    pub stream: StreamConfig,
    /// What to do with a packet whose shard's ring is full.
    pub overload: OverloadPolicy,
    /// Stuck-shard watchdog threshold: a shard is declared stuck after
    /// this many consecutive dispatcher wait-iterations with its ring
    /// full and its heartbeat frozen. The default (`1 << 26`, tens of
    /// seconds of spinning) only ever fires on a genuinely wedged
    /// worker; tests lower it to exercise the path.
    pub watchdog_limit: u64,
    /// Injected fault schedule (empty in production use).
    pub faults: FaultPlan,
    /// Dump every shard's live flow table (conntrack-style
    /// [`FlowEntry`] records, as of end of stream, before the final
    /// drain) into [`ShardedRun::flows`]. Off by default: the dump is
    /// O(live flows) per shard.
    pub dump_flows: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        // Leave one core for the dispatch loop when the machine has the
        // cores to spare; degrade to a single shard otherwise.
        let workers =
            std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1));
        ShardConfig {
            shards: workers,
            queue_capacity: 1024,
            stream: StreamConfig::default(),
            overload: OverloadPolicy::Block,
            watchdog_limit: 1 << 26,
            faults: FaultPlan::none(),
            dump_flows: false,
        }
    }
}

/// Ingest/backpressure/supervision accounting for one shard of a
/// finished run. The exact invariant, enforced under every policy and
/// fault schedule: `pushed == packets + dropped + quarantined`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (`0..shards`).
    pub shard: usize,
    /// Packets the dispatcher addressed to this shard (scored, shed or
    /// quarantined — every one is accounted below).
    pub pushed: u64,
    /// Packets this shard scored.
    pub packets: u64,
    /// Flows this shard finalized (all close reasons).
    pub flows_closed: u64,
    /// Times the dispatcher found this shard's ingest ring full and had
    /// to wait — the backpressure signal. Counted once per stalled push,
    /// not per spin iteration.
    pub full_waits: u64,
    /// Packets shed: by the overload policy, by the watchdog cutting off
    /// a stuck shard, or lost to a dying worker (its in-flight packet
    /// and undrained ring).
    pub dropped: u64,
    /// Packets quarantined after a supervised scoring panic.
    pub quarantined: u64,
    /// Times this shard's flow table was rebuilt from scratch (one per
    /// quarantine, plus one each if the end-of-stream flow dump or flush
    /// panicked).
    pub restarts: u64,
    /// This shard's flow-table counters ([`StreamStats`]): peak live
    /// flows, eviction breakdown by cause. The counters live in the
    /// shared telemetry hub ([`ShardedStreamScorer::telemetry`]), so they
    /// survive even a shard whose worker died mid-run.
    pub stream: StreamStats,
}

impl ShardStats {
    /// One run's accounting for `shard`: what its hub counters gained
    /// between the snapshot taken before any worker started (`b`) and the
    /// one taken after every worker joined (`e`).
    fn delta(shard: usize, b: &ShardSnapshot, e: &ShardSnapshot) -> ShardStats {
        ShardStats {
            shard,
            pushed: e.dispatched - b.dispatched,
            packets: e.scored - b.scored,
            flows_closed: e.flows_closed - b.flows_closed,
            full_waits: e.full_waits - b.full_waits,
            dropped: e.dropped - b.dropped,
            quarantined: e.quarantined - b.quarantined,
            restarts: e.restarts - b.restarts,
            stream: StreamStats {
                // A high-water mark, not a rate: reported raw.
                flows_peak: e.flows_peak as usize,
                evicted_idle: e.evicted_idle - b.evicted_idle,
                evicted_capacity: e.evicted_capacity - b.evicted_capacity,
                closed_tcp: e.closed_tcp - b.closed_tcp,
                length_capped: e.length_capped - b.length_capped,
                drained: e.drained - b.drained,
            },
        }
    }
}

/// One merged verdict: which shard scored the flow, the global arrival
/// index of the flow's first packet (the merge sort key), and the same
/// [`ClosedFlow`] the unsharded engine would have produced.
#[derive(Debug, Clone)]
pub struct ShardVerdict {
    pub shard: usize,
    /// Index (0-based) in the input stream of the first packet of this
    /// flow incarnation. Unique per verdict, which makes the merged order
    /// total and deterministic.
    pub arrival: u64,
    pub flow: ClosedFlow,
}

/// The merged output of one sharded replay.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Every finalized flow, sorted by [`ShardVerdict::arrival`] — the
    /// order of first appearance in the stream. Independent of queue
    /// capacity and scheduling always; independent of shard count too
    /// unless idle-timeout evictions fire (see the module docs).
    pub verdicts: Vec<ShardVerdict>,
    /// Per-shard ingest accounting, indexed by shard.
    pub stats: Vec<ShardStats>,
    /// Every quarantined packet, sorted by arrival index (empty on a
    /// fault-free run).
    pub quarantined: Vec<Quarantined>,
    /// Conntrack-style dump of every shard's live flow table as of end
    /// of stream (before the final drain finalized them), sorted by
    /// arrival index. Empty unless [`ShardConfig::dump_flows`] is set.
    pub flows: Vec<FlowEntry>,
}

/// RSS-sharded scoring session: a hash-partitioned fan-out of
/// [`StreamScorer`](crate::StreamScorer)s. Create via
/// [`Clap::sharded_scorer`] (or
/// [`Clap::sharded_scorer_with`] for explicit policy), then feed one
/// interleaved packet stream to [`score_stream`](Self::score_stream) or
/// [`try_score_stream`](Self::try_score_stream).
pub struct ShardedStreamScorer<'a> {
    clap: &'a Clap,
    config: ShardConfig,
    /// Per-shard telemetry cells, shared with every thread that wants a
    /// live view: counters are lifetime-cumulative across runs of this
    /// scorer; each run's [`ShardStats`] is the baseline-vs-end delta.
    hub: Arc<TelemetryHub>,
}

impl Clap {
    /// Builds a sharded streaming scorer with default policy (one shard
    /// per available core, minus one for dispatch).
    pub fn sharded_scorer(&self) -> ShardedStreamScorer<'_> {
        self.sharded_scorer_with(ShardConfig::default())
    }

    /// Builds a sharded streaming scorer with an explicit [`ShardConfig`].
    ///
    /// # Panics
    ///
    /// If `config.stream.microbatch` ≥ 2 or `config.stream.time_wait` is
    /// not `0.0`, as [`Clap::stream_scorer_with`] does — here, on the
    /// caller's thread.
    pub fn sharded_scorer_with(&self, config: ShardConfig) -> ShardedStreamScorer<'_> {
        config.stream.assert_per_packet();
        let hub = Arc::new(TelemetryHub::new(config.shards.max(1)));
        ShardedStreamScorer {
            clap: self,
            config,
            hub,
        }
    }
}

impl ShardedStreamScorer<'_> {
    /// The effective shard count (the configured value, floored at 1).
    pub fn shards(&self) -> usize {
        self.config.shards.max(1)
    }

    /// The scorer's live telemetry hub. Any thread holding the `Arc` can
    /// take coherent [`TelemetryHub::snapshot`]s while a run is in
    /// flight — counters are wait-free for the writers and
    /// lifetime-cumulative across runs of this scorer.
    pub fn telemetry(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.hub)
    }

    /// Replays one interleaved packet stream through the sharded engine
    /// and returns the merged verdicts plus per-shard accounting,
    /// panicking if any shard fails hard. Prefer
    /// [`try_score_stream`](Self::try_score_stream) when the caller can
    /// use a degraded run.
    pub fn score_stream<'p>(&self, packets: impl IntoIterator<Item = &'p Packet>) -> ShardedRun {
        match self.try_score_stream(packets) {
            Ok(run) => run,
            Err(e) => panic!("sharded run failed hard: {e}"),
        }
    }

    /// Replays one interleaved packet stream through the supervised
    /// sharded engine. On a clean (possibly load-shedding) run,
    /// returns the merged verdicts plus per-shard accounting; if any
    /// shard dies or is declared stuck, returns a [`ShardRunError`]
    /// naming the failed shards and carrying the surviving shards'
    /// verdicts and every shard's stats.
    ///
    /// The calling thread runs the dispatch loop (hash → shard → SPSC
    /// push under the configured [`OverloadPolicy`]), pulling `packets`
    /// one at a time while `shards` scoped worker threads consume their
    /// rings into per-shard supervised
    /// [`StreamScorer`](crate::StreamScorer)s — a lazily parsed capture
    /// overlaps with scoring. All live flows are finalized at end of
    /// stream, exactly like
    /// [`StreamScorer::finish`](crate::StreamScorer::finish).
    pub fn try_score_stream<'p>(
        &self,
        packets: impl IntoIterator<Item = &'p Packet>,
    ) -> Result<ShardedRun, ShardRunError> {
        let (config, hub) = (&self.config, &*self.hub);
        let queues: Vec<spsc::Ring<(u64, &'p Packet)>> = (0..self.shards())
            .map(|_| spsc::Ring::new(config.queue_capacity.max(1)))
            .collect();
        // The hub is lifetime-cumulative; this run's ShardStats is the
        // delta against the baseline taken before any worker starts.
        let base = hub.snapshot();

        std::thread::scope(|s| {
            // Any unwind out of this closure — e.g. a panic inside the
            // caller's `packets` iterator — must still close every ring,
            // or the scope's implicit join would hang on workers spinning
            // against open rings. The guard closes them on drop; the
            // normal path drops it (and thus closes the rings) before
            // joining.
            let close_rings = CloseRings(&queues);
            let handles: Vec<_> = queues
                .iter()
                .enumerate()
                .map(|(i, ring)| {
                    let clap = self.clap;
                    s.spawn(move || worker::shard_worker(clap, config, i, ring, hub.shard(i)))
                })
                .collect();

            let mut dispatcher =
                Dispatcher::new(config, &queues, hub, |i| handles[i].is_finished());
            for (seq, p) in packets.into_iter().enumerate() {
                dispatcher.offer(seq as u64, p);
            }
            let mut failures = dispatcher.finish();
            drop(close_rings);

            let mut verdicts = Vec::new();
            let mut quarantined: Vec<Quarantined> = Vec::new();
            let mut flows: Vec<FlowEntry> = Vec::new();
            for (shard, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(mut output) => {
                        verdicts.append(&mut output.verdicts);
                        quarantined.append(&mut output.quarantined);
                        flows.append(&mut output.flows);
                    }
                    Err(payload) => {
                        failures.push(ShardFailure {
                            shard,
                            kind: ShardFailureKind::Died(supervise::panic_message(
                                payload.as_ref(),
                            )),
                        });
                        // The dead worker never drained its leftovers;
                        // the join above makes this thread the sole ring
                        // user, so count them as dropped to keep the
                        // accounting invariant exact.
                        let mut leftovers = 0u64;
                        while queues[shard].try_pop().is_some() {
                            leftovers += 1;
                        }
                        hub.shard(shard).dispatch.shed_many(leftovers);
                    }
                }
            }
            // Every worker has joined and every leftover is accounted, so
            // this cut has `dispatched == pushed` per shard.
            let end = hub.snapshot();
            let stats = (base.shards.iter().zip(&end.shards).enumerate())
                .map(|(shard, (b, e))| ShardStats::delta(shard, b, e))
                .collect();
            // First-packet arrival indices are unique across flows (each
            // tags a distinct packet), so this order is total in
            // practice; the stable sort makes even a pathological tie
            // deterministic (tied verdicts share a tuple, hence a shard,
            // and keep that shard's emission order, which is itself a
            // pure function of the input).
            let mut merge_rec = StageRecorder::new();
            merge_rec.attach(Arc::clone(&hub.shard(0).stages));
            let mut merge_clock = merge_rec.start();
            verdicts.sort_by_key(|v| v.arrival);
            quarantined.sort_by_key(|q| q.arrival);
            flows.sort_by_key(|f| f.arrival);
            if let Some(c) = merge_clock.as_mut() {
                c.lap(Stage::Merge);
            }
            let run = ShardedRun {
                verdicts,
                stats,
                quarantined,
                flows,
            };
            if failures.is_empty() {
                Ok(run)
            } else {
                failures.sort_by_key(|f| f.shard);
                Err(ShardRunError {
                    failures,
                    partial: run,
                })
            }
        })
    }
}

/// Closes every ring when dropped. Held across the dispatch loop so that
/// both the normal path and any unwind (a panicking caller iterator)
/// release the workers from their pop loops.
struct CloseRings<'q, T>(&'q [spsc::Ring<T>]);

impl<T> Drop for CloseRings<'_, T> {
    fn drop(&mut self) {
        for ring in self.0 {
            ring.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fault::Fault;
    use super::*;
    use crate::pipeline::ClapConfig;
    use crate::stream::CloseReason;
    use net_packet::{
        Connection, Endpoint, FlowKey, Ipv4Header, Ipv6Header, TcpFlags, TcpHeader, UdpHeader,
    };
    use std::net::{Ipv4Addr, Ipv6Addr};
    use std::sync::OnceLock;

    /// One trained model shared across tests (training dominates runtime).
    fn model() -> &'static Clap {
        static MODEL: OnceLock<Clap> = OnceLock::new();
        MODEL.get_or_init(|| {
            let benign = traffic_gen::dataset(87, 20);
            let mut cfg = ClapConfig::ci();
            cfg.ae.epochs = 8;
            Clap::train(&benign, &cfg).0
        })
    }

    fn cfg(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            queue_capacity: 8,
            stream: StreamConfig {
                teardown_on_close: false,
                ..StreamConfig::default()
            },
            ..ShardConfig::default()
        }
    }

    fn interleave(conns: &[Connection]) -> Vec<&Packet> {
        let mut stream: Vec<&Packet> = conns.iter().flat_map(|c| c.packets.iter()).collect();
        stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        stream
    }

    fn raw_packet(src: (u8, u16), dst: (u8, u16), flags: TcpFlags, ts: f64) -> Packet {
        let ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, src.0),
            Ipv4Addr::new(10, 0, 0, dst.0),
            64,
        );
        let mut tcp = TcpHeader::new(src.1, dst.1, 1000, 0);
        tcp.flags = flags;
        Packet::new(ts, ip, tcp, Vec::new())
    }

    fn v6_packet(src: (u16, u16), dst: (u16, u16), flags: TcpFlags, ts: f64) -> Packet {
        let ip = Ipv6Header::new(
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, src.0),
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, dst.0),
            64,
        );
        let mut tcp = TcpHeader::new(src.1, dst.1, 1000, 0);
        tcp.flags = flags;
        Packet::new_v6(ts, ip, tcp, Vec::new())
    }

    fn udp_packet(src: (u8, u16), dst: (u8, u16), ts: f64, payload: Vec<u8>) -> Packet {
        let ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, src.0),
            Ipv4Addr::new(10, 0, 0, dst.0),
            64,
        );
        Packet::new_udp(ts, ip, UdpHeader::new(src.1, dst.1), payload)
    }

    fn udp6_packet(src: (u16, u16), dst: (u16, u16), ts: f64, payload: Vec<u8>) -> Packet {
        let ip = Ipv6Header::new(
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, src.0),
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, dst.0),
            64,
        );
        Packet::new_udp6(ts, ip, UdpHeader::new(src.1, dst.1), payload)
    }

    /// Client ports whose flows (10.0.0.1:port -> 10.0.0.2:80) land on
    /// `target` of `shards` — lets a test aim traffic at one shard.
    fn ports_on_shard(target: usize, shards: usize, n: usize) -> Vec<u16> {
        (1024u16..)
            .filter(|&port| {
                let p = raw_packet((1, port), (2, 80), TcpFlags::SYN, 0.0);
                CanonicalKey::of(&p).shard_of(shards) == target
            })
            .take(n)
            .collect()
    }

    /// Asserts the exact accounting invariant on every shard of a run,
    /// through the library-level checker
    /// ([`TelemetrySnapshot::check_invariants`]) — the same one the
    /// mid-run snapshot proptests apply while packets are still flowing.
    fn assert_accounting(stats: &[ShardStats]) {
        use clap_telemetry::{ShardSnapshot, TelemetrySnapshot};
        let snap = TelemetrySnapshot {
            shards: stats
                .iter()
                .map(|s| ShardSnapshot {
                    pushed: s.pushed,
                    scored: s.packets,
                    dropped: s.dropped,
                    quarantined: s.quarantined,
                    // At end of run every dispatched packet is accounted.
                    dispatched: s.pushed,
                    flows_peak: s.stream.flows_peak as u64,
                    ..ShardSnapshot::default()
                })
                .collect(),
        };
        if let Err(e) = snap.check_invariants() {
            panic!("accounting invariant broken: {e}\nstats: {stats:?}");
        }
    }

    /// Bitwise fingerprint of a run's verdicts, for determinism and
    /// survivor-identity checks.
    fn fingerprint(run: &ShardedRun) -> Vec<(u64, usize, usize, u32)> {
        run.verdicts
            .iter()
            .map(|v| {
                (
                    v.arrival,
                    v.flow.packets,
                    v.shard,
                    v.flow.scored.score.to_bits(),
                )
            })
            .collect()
    }

    /// Merged verdicts come back in order of first appearance in the
    /// stream — the `assemble_connections` order — for any shard count.
    #[test]
    fn shard_merge_order_is_first_appearance() {
        let clap = model();
        let corpus = traffic_gen::dataset(870, 10);
        let stream = interleave(&corpus);
        let offline = net_packet::assemble_connections(
            &stream.iter().map(|p| (*p).clone()).collect::<Vec<_>>(),
        );
        for shards in [1, 2, 4] {
            let run = clap
                .sharded_scorer_with(cfg(shards))
                .score_stream(stream.iter().copied());
            assert_eq!(run.verdicts.len(), offline.len());
            for (v, conn) in run.verdicts.iter().zip(&offline) {
                assert_eq!(
                    CanonicalKey::of_key(&v.flow.key),
                    CanonicalKey::of_key(&conn.key),
                    "merge order must match first-appearance order at {shards} shards"
                );
            }
            assert!(
                run.verdicts.windows(2).all(|w| w[0].arrival < w[1].arrival),
                "arrival tags are strictly increasing"
            );
        }
    }

    /// Every packet is accounted for exactly once across shards, and the
    /// per-shard stats are consistent with the merged verdicts.
    #[test]
    fn shard_accounting_is_exact() {
        let clap = model();
        let corpus = traffic_gen::dataset(871, 12);
        let stream = interleave(&corpus);
        let mut config = cfg(4);
        config.queue_capacity = 1; // maximal backpressure still loses nothing
        let run = clap
            .sharded_scorer_with(config)
            .score_stream(stream.iter().copied());
        assert_eq!(run.stats.len(), 4);
        let consumed: u64 = run.stats.iter().map(|s| s.packets).sum();
        assert_eq!(consumed as usize, stream.len());
        let pushed: u64 = run.stats.iter().map(|s| s.pushed).sum();
        assert_eq!(pushed as usize, stream.len());
        assert_accounting(&run.stats);
        let closed: u64 = run.stats.iter().map(|s| s.flows_closed).sum();
        assert_eq!(closed as usize, run.verdicts.len());
        let scored: usize = run.verdicts.iter().map(|v| v.flow.packets).sum();
        assert_eq!(scored, stream.len(), "every packet reaches a verdict");
        for v in &run.verdicts {
            assert_eq!(
                v.shard,
                CanonicalKey::of_key(&v.flow.key).shard_of(4),
                "flows are scored by the shard the hash assigns"
            );
        }
    }

    /// Driving one shard to its per-shard flow-table capacity fires
    /// capacity probing on that shard exactly as the unsharded engine
    /// would, while the other shards stay untouched.
    #[test]
    fn shard_capacity_eviction_matches_unsharded() {
        let clap = model();
        let shards = 4;
        let target = 2;
        let ports = ports_on_shard(target, shards, 6);
        let packets: Vec<Packet> = ports
            .iter()
            .enumerate()
            .map(|(i, &port)| raw_packet((1, port), (2, 80), TcpFlags::SYN, i as f64))
            .collect();

        let stream_cfg = StreamConfig {
            max_flows: 2,
            teardown_on_close: false,
            ..StreamConfig::default()
        };
        let config = ShardConfig {
            shards,
            queue_capacity: 8,
            stream: stream_cfg.clone(),
            ..ShardConfig::default()
        };
        let run = clap
            .sharded_scorer_with(config)
            .score_stream(packets.iter());

        // Reference: the same packets through one unsharded scorer with
        // the same per-table policy.
        let mut plain = clap.stream_scorer_with(stream_cfg);
        for p in &packets {
            plain.push(p);
        }
        let reference = plain.finish();

        assert_eq!(run.verdicts.len(), reference.len());
        let evicted = |flows: Vec<&ClosedFlow>| {
            flows
                .iter()
                .filter(|f| f.reason == CloseReason::CapacityEvicted)
                .count()
        };
        assert_eq!(
            evicted(run.verdicts.iter().map(|v| &v.flow).collect()),
            evicted(reference.iter().collect()),
            "capacity probing fires per shard exactly as unsharded"
        );
        assert_eq!(evicted(reference.iter().collect()), 4, "6 flows - 2 slots");
        for (shard, st) in run.stats.iter().enumerate() {
            if shard == target {
                assert_eq!(st.packets as usize, packets.len());
            } else {
                assert_eq!(st.packets, 0, "idle shards see no traffic");
                assert_eq!(st.flows_closed, 0);
            }
        }
    }

    /// Idle-timeout sweeps fire per shard with the shard's own clock,
    /// matching the unsharded engine fed the same (sub)stream.
    #[test]
    fn shard_idle_sweep_matches_unsharded() {
        let clap = model();
        let shards = 4;
        let target = 1;
        let ports = ports_on_shard(target, shards, 3);
        // Two flows at t=0, then a third packet 10s later: both earlier
        // flows are past a 1s idle deadline when the sweep runs.
        let packets = vec![
            raw_packet((1, ports[0]), (2, 80), TcpFlags::SYN, 0.0),
            raw_packet((1, ports[1]), (2, 80), TcpFlags::SYN, 0.5),
            raw_packet((1, ports[2]), (2, 80), TcpFlags::SYN, 10.0),
        ];
        let stream_cfg = StreamConfig {
            idle_timeout: 1.0,
            sweep_interval: 1,
            teardown_on_close: false,
            ..StreamConfig::default()
        };
        let config = ShardConfig {
            shards,
            queue_capacity: 8,
            stream: stream_cfg.clone(),
            ..ShardConfig::default()
        };
        let run = clap
            .sharded_scorer_with(config)
            .score_stream(packets.iter());

        let mut plain = clap.stream_scorer_with(stream_cfg);
        for p in &packets {
            plain.push(p);
        }
        let reference = plain.finish();

        let reasons = |flows: Vec<CloseReason>| {
            let mut idle = 0;
            let mut drained = 0;
            for r in flows {
                match r {
                    CloseReason::IdleTimeout => idle += 1,
                    CloseReason::Drained => drained += 1,
                    other => panic!("unexpected close reason {other:?}"),
                }
            }
            (idle, drained)
        };
        let sharded = reasons(run.verdicts.iter().map(|v| v.flow.reason).collect());
        let unsharded = reasons(reference.iter().map(|f| f.reason).collect());
        assert_eq!(
            sharded, unsharded,
            "idle sweeps fire per shard as unsharded"
        );
        assert_eq!(sharded, (2, 1));
    }

    /// TCP teardown finalizes flows inline on their owning shard with the
    /// same verdicts as the unsharded engine.
    #[test]
    fn shard_teardown_matches_unsharded() {
        let clap = model();
        let corpus = traffic_gen::dataset(873, 10);
        let stream = interleave(&corpus);
        let config = ShardConfig {
            shards: 4,
            queue_capacity: 8,
            stream: StreamConfig::default(), // teardown_on_close: true
            ..ShardConfig::default()
        };
        let run = clap
            .sharded_scorer_with(config)
            .score_stream(stream.iter().copied());

        let mut plain = clap.stream_scorer();
        for p in &stream {
            plain.push(p);
        }
        let mut reference = plain.drain_closed();
        reference.extend(plain.finish());

        assert_eq!(run.verdicts.len(), reference.len());
        let torn: Vec<&ShardVerdict> = run
            .verdicts
            .iter()
            .filter(|v| v.flow.reason == CloseReason::TcpClose)
            .collect();
        assert!(
            !torn.is_empty(),
            "generated traffic contains orderly closes"
        );
        for v in &torn {
            let r = reference
                .iter()
                .find(|f| f.key == v.flow.key && f.packets == v.flow.packets)
                .expect("teardown flow exists in unsharded reference");
            assert_eq!(r.reason, CloseReason::TcpClose);
            assert_eq!(
                r.scored.score.to_bits(),
                v.flow.scored.score.to_bits(),
                "sharded teardown verdict diverged: {} vs {}",
                v.flow.scored.score,
                r.scored.score
            );
        }
    }

    /// A single-packet smoke check that orientation handling (the PR 3
    /// orient buffer) behaves identically under sharding: the late pure
    /// SYN re-orients the flow on its shard.
    #[test]
    fn shard_late_syn_reorients() {
        let clap = model();
        // Server speaks first, client's pure SYN arrives second.
        let packets = [
            raw_packet((2, 80), (1, 1111), TcpFlags::ACK, 0.0),
            raw_packet((1, 1111), (2, 80), TcpFlags::SYN, 0.1),
        ];
        let config = ShardConfig {
            shards: 4,
            queue_capacity: 8,
            stream: StreamConfig {
                teardown_on_close: false,
                ..StreamConfig::default()
            },
            ..ShardConfig::default()
        };
        let run = clap
            .sharded_scorer_with(config)
            .score_stream(packets.iter());
        assert_eq!(run.verdicts.len(), 1);
        let key = &run.verdicts[0].flow.key;
        assert_eq!(key.client.port, 1111, "SYN sender becomes client");
        assert_eq!(
            key,
            &FlowKey::new(
                Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1111),
                Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80),
            )
        );
    }

    /// A tuple whose flow is idle-swept and restarted *by the same push*
    /// (packet arrives after the idle deadline) must re-tag the new
    /// incarnation: both verdicts carry real, distinct arrival indices,
    /// identically across shard counts. Regression test for the restart
    /// path losing its arrival tag.
    #[test]
    fn shard_flow_restart_keeps_deterministic_arrivals() {
        let clap = model();
        // Same tuple: packet 0 at t=0, packet 1 at t=10 past a 1s idle
        // deadline — the second push sweeps incarnation 1 and starts
        // incarnation 2 from the same packet. A second tuple sits in
        // between so a lost tag would collide with its arrival.
        let packets = [
            raw_packet((1, 1111), (2, 80), TcpFlags::SYN, 0.0),
            raw_packet((3, 2222), (4, 80), TcpFlags::SYN, 0.5),
            raw_packet((1, 1111), (2, 80), TcpFlags::ACK, 10.0),
        ];
        let stream_cfg = StreamConfig {
            idle_timeout: 1.0,
            sweep_interval: 1,
            teardown_on_close: false,
            ..StreamConfig::default()
        };
        let mut arrivals_by_count = Vec::new();
        for shards in [1usize, 2, 4] {
            let config = ShardConfig {
                shards,
                queue_capacity: 8,
                stream: stream_cfg.clone(),
                ..ShardConfig::default()
            };
            let run = clap
                .sharded_scorer_with(config)
                .score_stream(packets.iter());
            assert_eq!(run.verdicts.len(), 3, "2 incarnations + 1 other flow");
            let arrivals: Vec<(u64, u16, usize)> = run
                .verdicts
                .iter()
                .map(|v| (v.arrival, v.flow.key.client.port, v.flow.packets))
                .collect();
            assert_eq!(
                arrivals,
                vec![(0, 1111, 1), (1, 2222, 1), (2, 1111, 1)],
                "restarted incarnation carries its own packet's index at {shards} shards"
            );
            arrivals_by_count.push(arrivals);
        }
        assert!(
            arrivals_by_count.windows(2).all(|w| w[0] == w[1]),
            "arrival tags are shard-count independent"
        );
    }

    /// With idle sweeps firing aggressively (long gaps, sweep every
    /// packet), repeated runs at a fixed shard count must still produce
    /// exactly the same verdicts — scheduling can never leak into output.
    /// (Across *different* shard counts, idle-split points may legally
    /// move: that boundary is documented in the module docs.)
    #[test]
    fn shard_idle_sweeps_are_deterministic_per_shard_count() {
        let clap = model();
        // Three tuples with multi-packet flows and inter-flow gaps far
        // past the idle deadline, so flows split into incarnations.
        let mut packets = Vec::new();
        for round in 0..4u8 {
            for (host, port) in [(1u8, 1111u16), (3, 2222), (5, 3333)] {
                packets.push(raw_packet(
                    (host, port),
                    (host + 1, 80),
                    if round == 0 {
                        TcpFlags::SYN
                    } else {
                        TcpFlags::ACK
                    },
                    f64::from(round) * 50.0 + f64::from(host) * 0.1,
                ));
            }
        }
        let stream_cfg = StreamConfig {
            idle_timeout: 10.0,
            sweep_interval: 1,
            teardown_on_close: false,
            ..StreamConfig::default()
        };
        for shards in [2usize, 4] {
            let config = ShardConfig {
                shards,
                queue_capacity: 2,
                stream: stream_cfg.clone(),
                ..ShardConfig::default()
            };
            let a = clap
                .sharded_scorer_with(config.clone())
                .score_stream(packets.iter());
            let b = clap
                .sharded_scorer_with(config)
                .score_stream(packets.iter());
            assert!(
                a.verdicts.len() > 3,
                "test premise: idle sweeps split flows into incarnations"
            );
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "identical runs diverged at {shards} shards"
            );
        }
    }

    /// A mixed v4/v6/TCP/UDP stream (plus generated v4 background
    /// traffic) must yield *byte-identical* verdicts — same arrivals,
    /// keys, packet counts, reasons and bitwise scores — at every shard
    /// count. This is the PR-9 acceptance gate for the widened flow key:
    /// if the v6 or UDP key hashed or compared inconsistently anywhere in
    /// the dispatch path, flows would split or land on moving shards and
    /// the fingerprints would diverge.
    #[test]
    fn protocol_mixed_stream_verdicts_are_shard_count_invariant() {
        let clap = model();
        let mut packets: Vec<Packet> = traffic_gen::dataset(871, 6)
            .iter()
            .flat_map(|c| c.packets.iter().cloned())
            .collect();
        // v6 TCP handshake + data.
        packets.push(v6_packet((0xa, 5555), (0xb, 443), TcpFlags::SYN, 0.11));
        packets.push(v6_packet(
            (0xb, 443),
            (0xa, 5555),
            TcpFlags::SYN | TcpFlags::ACK,
            0.22,
        ));
        packets.push(v6_packet((0xa, 5555), (0xb, 443), TcpFlags::ACK, 0.33));
        // v4 UDP exchange.
        packets.push(udp_packet((7, 9999), (8, 53), 0.15, vec![1, 2, 3]));
        packets.push(udp_packet((8, 53), (7, 9999), 0.25, vec![4, 5, 6, 7]));
        // v6 UDP exchange.
        packets.push(udp6_packet((0xc, 7777), (0xd, 53), 0.18, vec![9; 12]));
        packets.push(udp6_packet((0xd, 53), (0xc, 7777), 0.28, vec![8; 20]));
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));

        let mut runs = Vec::new();
        for shards in [1usize, 2, 4, 7] {
            let run = clap
                .sharded_scorer_with(cfg(shards))
                .score_stream(packets.iter());
            let print: Vec<(u64, FlowKey, usize, CloseReason, u32)> = run
                .verdicts
                .iter()
                .map(|v| {
                    (
                        v.arrival,
                        v.flow.key,
                        v.flow.packets,
                        v.flow.reason,
                        v.flow.scored.score.to_bits(),
                    )
                })
                .collect();
            runs.push((shards, print));
        }
        let (_, reference) = &runs[0];
        assert!(
            reference
                .iter()
                .any(|(_, k, ..)| k.proto == net_packet::ipv4::PROTO_UDP),
            "test premise: stream produced UDP flows"
        );
        assert!(
            reference.iter().any(|(_, k, ..)| k.client.addr.is_ipv6()),
            "test premise: stream produced IPv6 flows"
        );
        for (shards, print) in &runs[1..] {
            assert_eq!(
                print, reference,
                "mixed-protocol verdicts diverged at {shards} shards"
            );
        }
    }

    /// A templated scan — every probe pads to one of two windows, so each
    /// worker's padded-window memo answers nearly all of them — scores
    /// under `Block` exactly as one unsharded scorer does: the same
    /// verdicts, reasons and score bits, at every shard count.
    #[test]
    fn shard_scan_with_memoised_pads_matches_unsharded() {
        let clap = model();
        let mut packets = Vec::new();
        for i in 0..96u16 {
            let [a, b] = i.to_be_bytes();
            let client = (Ipv4Addr::new(10, 7, a, b), 20_000 + i);
            let server = (Ipv4Addr::new(10, 8, 0, 1), 443);
            let ts = 0.01 * f64::from(i);
            let mut syn = TcpHeader::new(client.1, server.1, 77 + u32::from(i), 0);
            syn.flags = TcpFlags::SYN;
            let ip = Ipv4Header::new(client.0, server.0, 64);
            packets.push(Packet::new(ts, ip, syn, Vec::new()));
            if i % 4 != 0 {
                let mut rst = TcpHeader::new(server.1, client.1, 0, 78 + u32::from(i));
                rst.flags = TcpFlags::RST | TcpFlags::ACK;
                let ip = Ipv4Header::new(server.0, client.0, 64);
                packets.push(Packet::new(ts + 0.3, ip, rst, Vec::new()));
            }
        }
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let print = |flows: Vec<(u64, &crate::ClosedFlow)>| {
            let mut print: Vec<_> = flows
                .into_iter()
                .map(|(arrival, f)| {
                    (
                        arrival,
                        f.key,
                        f.packets,
                        f.reason,
                        f.scored.score.to_bits(),
                    )
                })
                .collect();
            print.sort_by_key(|&(arrival, ..)| arrival);
            print
        };
        let mut plain = clap.stream_scorer();
        for p in &packets {
            plain.push(p);
        }
        let reference = plain.finish();
        let two_windows = crate::MemoCounts {
            scored: 96,
            memo_hits: 94,
        };
        assert_eq!(plain.pad_windows(), two_windows);
        let reference = print(reference.iter().map(|f| (f.arrival, f)).collect());
        assert_eq!(reference.len(), 96);
        for shards in [1, 2, 4] {
            let run = clap
                .sharded_scorer_with(ShardConfig {
                    shards,
                    queue_capacity: 8,
                    overload: OverloadPolicy::Block,
                    ..ShardConfig::default()
                })
                .score_stream(packets.iter());
            let flows = run.verdicts.iter().map(|v| (v.arrival, &v.flow)).collect();
            assert_eq!(print(flows), reference, "{shards} shards");
        }
    }

    /// Zero/one shard configurations degrade gracefully.
    #[test]
    fn shard_count_is_floored_at_one() {
        let clap = model();
        let corpus = traffic_gen::dataset(874, 3);
        let stream = interleave(&corpus);
        let run = clap
            .sharded_scorer_with(cfg(0))
            .score_stream(stream.iter().copied());
        assert_eq!(run.stats.len(), 1);
        assert_eq!(run.verdicts.len(), corpus.len());
    }

    /// The input is pulled inside the worker scope. So scoring overlaps
    /// with it: when the iterator yields packet `n`, backpressure has
    /// already forced all but a ring-full per shard of the packets before
    /// it through the workers. And a panic in it unwinds out of the call
    /// through the ring guard: every ring closed, every worker joined
    /// (anything else hangs — hence the timeouts), every packet
    /// dispatched before the panic consumed and accounted.
    #[test]
    fn shard_panicking_input_iterator_unwinds_with_workers_joined() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        fault::silence_injected_panics();
        let config = cfg(3);
        let in_rings = 3 * (config.queue_capacity as u64 + 1);
        let (tx, rx) = channel();
        let run = std::thread::spawn(move || {
            let corpus = traffic_gen::dataset(877, 10);
            let stream = interleave(&corpus);
            let n = stream.len() / 2;
            let sharded = model().sharded_scorer_with(config);
            let hub = sharded.telemetry();
            let input = stream.iter().copied().enumerate().map(|(i, p)| {
                if i == n {
                    let scored = hub.snapshot().total(|s| s.scored);
                    tx.send((Arc::clone(&hub), n as u64, scored)).unwrap();
                    panic!("{}: input iterator at packet {i}", fault::INJECTED_TAG);
                }
                p
            });
            sharded.try_score_stream(input).is_ok()
        });
        let wait = std::time::Duration::from_secs(120);
        let (hub, n, scored_at_n) = rx.recv_timeout(wait).expect("the input reaches packet n");
        assert!(
            scored_at_n + in_rings >= n,
            "only {scored_at_n} of {n} packets scored while the input was still being read"
        );
        // The sender dies with the thread: a disconnect is the unwind
        // arriving at the top, a timeout a worker spinning on an open ring.
        assert_eq!(
            rx.recv_timeout(wait).err(),
            Some(RecvTimeoutError::Disconnected)
        );
        let payload = run.join().expect_err("the iterator's panic propagates");
        assert!(supervise::panic_message(payload.as_ref()).contains("input iterator"));
        let snap = hub.snapshot();
        snap.check_invariants().expect("coherent after the unwind");
        assert_eq!(snap.total(|s| s.dispatched), n);
        assert_eq!(snap.total(|s| s.scored), n, "every ring was drained");
    }

    /// An injected scoring panic quarantines exactly that packet,
    /// restarts the shard, and the run still completes with exact
    /// accounting.
    #[test]
    fn fault_panic_quarantines_packet_and_completes() {
        fault::silence_injected_panics();
        let clap = model();
        let corpus = traffic_gen::dataset(875, 10);
        let stream = interleave(&corpus);
        let arrival = (stream.len() / 2) as u64;
        let victim = CanonicalKey::of(stream[arrival as usize]).shard_of(4);
        let mut config = cfg(4);
        config.faults = FaultPlan::none().with(Fault::PanicAt { arrival });
        let run = clap
            .sharded_scorer_with(config)
            .try_score_stream(stream.iter().copied())
            .expect("supervised panic must not fail the run");
        assert_accounting(&run.stats);
        assert_eq!(run.quarantined.len(), 1);
        let q = &run.quarantined[0];
        assert_eq!(q.arrival, arrival);
        assert_eq!(q.shard, victim);
        assert_eq!(q.key, CanonicalKey::of(stream[arrival as usize]));
        assert!(q.panic.contains(fault::INJECTED_TAG));
        assert_eq!(run.stats[victim].quarantined, 1);
        assert_eq!(run.stats[victim].restarts, 1);
        for s in &run.stats {
            if s.shard != victim {
                assert_eq!(s.quarantined, 0);
                assert_eq!(s.restarts, 0);
            }
        }
        let pushed: u64 = run.stats.iter().map(|s| s.pushed).sum();
        assert_eq!(pushed as usize, stream.len());
    }

    /// Flows owned by surviving shards score byte-identically whether or
    /// not another shard quarantined and restarted mid-run — panic
    /// isolation leaks nothing across the partition.
    #[test]
    fn fault_panic_leaves_other_shards_bitwise_identical() {
        fault::silence_injected_panics();
        let clap = model();
        let corpus = traffic_gen::dataset(876, 10);
        let stream = interleave(&corpus);
        let arrival = (stream.len() / 3) as u64;
        let victim = CanonicalKey::of(stream[arrival as usize]).shard_of(4);
        let clean = clap
            .sharded_scorer_with(cfg(4))
            .score_stream(stream.iter().copied());
        let mut config = cfg(4);
        config.faults = FaultPlan::none().with(Fault::PanicAt { arrival });
        let faulted = clap
            .sharded_scorer_with(config)
            .try_score_stream(stream.iter().copied())
            .expect("supervised panic must not fail the run");
        let survivors = |run: &ShardedRun| -> Vec<(u64, usize, usize, u32)> {
            fingerprint(run)
                .into_iter()
                .filter(|&(_, _, shard, _)| shard != victim)
                .collect()
        };
        assert!(
            !survivors(&clean).is_empty(),
            "test premise: other shards own flows"
        );
        assert_eq!(
            survivors(&clean),
            survivors(&faulted),
            "surviving shards must be byte-identical to the fault-free run"
        );
    }

    /// A panic escaping the supervised region kills the worker: the run
    /// reports a typed error naming the dead shard, keeps the survivors'
    /// verdicts and every shard's stats, and accounting stays exact.
    #[test]
    fn fault_kill_returns_shard_run_error_with_survivors() {
        fault::silence_injected_panics();
        let clap = model();
        let corpus = traffic_gen::dataset(877, 10);
        let stream = interleave(&corpus);
        let arrival = (stream.len() / 2) as u64;
        let victim = CanonicalKey::of(stream[arrival as usize]).shard_of(4);
        let mut config = cfg(4);
        config.faults = FaultPlan::none().with(Fault::KillAt { arrival });
        let err = clap
            .sharded_scorer_with(config)
            .try_score_stream(stream.iter().copied())
            .expect_err("a hard kill must fail the run");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].shard, victim);
        match &err.failures[0].kind {
            ShardFailureKind::Died(msg) => assert!(msg.contains(fault::INJECTED_TAG)),
            other => panic!("expected Died, got {other:?}"),
        }
        assert!(err.to_string().contains(&format!("shard {victim}")));
        let run = &err.partial;
        assert_eq!(run.stats.len(), 4, "dead shard's stats are retained");
        assert_accounting(&run.stats);
        let pushed: u64 = run.stats.iter().map(|s| s.pushed).sum();
        assert_eq!(pushed as usize, stream.len());
        assert!(run.stats[victim].dropped >= 1, "the in-flight packet");
        assert!(
            run.verdicts.iter().all(|v| v.shard != victim),
            "a dead shard contributes no verdicts"
        );
        assert!(!run.verdicts.is_empty(), "survivors' verdicts are retained");
        // And the survivors are byte-identical to a fault-free run.
        let clean = clap
            .sharded_scorer_with(cfg(4))
            .score_stream(stream.iter().copied());
        let survivors = |run: &ShardedRun| -> Vec<(u64, usize, usize, u32)> {
            fingerprint(run)
                .into_iter()
                .filter(|&(_, _, shard, _)| shard != victim)
                .collect()
        };
        assert_eq!(survivors(&clean), survivors(run));
    }

    /// A worker wedged long enough (injected stall, frozen heartbeat,
    /// full ring) trips the watchdog: the dispatcher cuts the shard off,
    /// sheds its remaining packets, and reports it stuck — while exact
    /// accounting holds throughout.
    #[test]
    fn fault_stall_trips_watchdog_and_sheds() {
        fault::silence_injected_panics();
        let clap = model();
        let shards = 4;
        let target = 0;
        let ports = ports_on_shard(target, shards, 4);
        let packets: Vec<Packet> = ports
            .iter()
            .enumerate()
            .map(|(i, &port)| raw_packet((1, port), (2, 80), TcpFlags::SYN, i as f64))
            .collect();
        let mut config = cfg(shards);
        config.queue_capacity = 1;
        config.watchdog_limit = 5_000;
        config.faults = FaultPlan::none().with(Fault::StallAt {
            arrival: 1,
            millis: 1_500,
        });
        let err = clap
            .sharded_scorer_with(config)
            .try_score_stream(packets.iter())
            .expect_err("a wedged shard must fail the run");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].shard, target);
        assert!(matches!(
            err.failures[0].kind,
            ShardFailureKind::Stuck { .. }
        ));
        let st = &err.partial.stats[target];
        assert_eq!(st.pushed as usize, packets.len());
        assert!(st.dropped >= 1, "the watchdog shed at least one packet");
        assert_eq!(st.quarantined, 0);
        assert_accounting(&err.partial.stats);
    }

    /// Under `DropNewest` with a deterministic forced burst, exactly the
    /// burst's packets are shed — and two runs agree bit for bit.
    #[test]
    fn fault_drop_newest_sheds_only_during_burst() {
        let clap = model();
        let shards = 4;
        let target = 1;
        let ports = ports_on_shard(target, shards, 5);
        let packets: Vec<Packet> = ports
            .iter()
            .enumerate()
            .map(|(i, &port)| raw_packet((1, port), (2, 80), TcpFlags::SYN, i as f64))
            .collect();
        let mut config = cfg(shards);
        config.overload = OverloadPolicy::DropNewest;
        config.faults = FaultPlan::none().with(Fault::FullBurst { from: 1, until: 3 });
        let a = clap
            .sharded_scorer_with(config.clone())
            .try_score_stream(packets.iter())
            .expect("shedding is not a failure");
        let st = &a.stats[target];
        assert_eq!(st.pushed, 5);
        assert_eq!(st.dropped, 2, "exactly the burst arrivals are shed");
        assert_eq!(st.packets, 3);
        assert_eq!(st.quarantined, 0);
        assert_accounting(&a.stats);
        assert_eq!(a.verdicts.len(), 3, "shed single-packet flows never open");
        let b = clap
            .sharded_scorer_with(config)
            .try_score_stream(packets.iter())
            .expect("shedding is not a failure");
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.stats, b.stats, "forced bursts shed deterministically");
    }

    /// A garbage-header packet must be *scored*, not crash the worker:
    /// the pipeline models invalid fields by design (attacks store them
    /// deliberately).
    #[test]
    fn fault_malformed_packet_is_scored_not_fatal() {
        let clap = model();
        let corpus = traffic_gen::dataset(878, 8);
        let stream = interleave(&corpus);
        let arrival = (stream.len() / 2) as u64;
        let mut config = cfg(4);
        config.faults = FaultPlan::none().with(Fault::MalformAt { arrival });
        let run = clap
            .sharded_scorer_with(config)
            .try_score_stream(stream.iter().copied())
            .expect("a malformed packet must not fail the run");
        assert_accounting(&run.stats);
        assert_eq!(run.quarantined.len(), 0, "malformed packets are scored");
        let scored: u64 = run.stats.iter().map(|s| s.packets).sum();
        assert_eq!(scored as usize, stream.len(), "nothing is shed");
        let clean = clap
            .sharded_scorer_with(cfg(4))
            .score_stream(stream.iter().copied());
        assert_eq!(run.verdicts.len(), clean.verdicts.len());
    }

    /// A fault-free run under the default policy sheds, quarantines and
    /// restarts nothing — the regression gate the CI throughput job
    /// leans on.
    #[test]
    fn fault_free_runs_report_zero_shed() {
        let clap = model();
        let corpus = traffic_gen::dataset(879, 10);
        let stream = interleave(&corpus);
        let mut config = cfg(4);
        config.queue_capacity = 2; // heavy real backpressure, zero loss
        let run = clap
            .sharded_scorer_with(config)
            .try_score_stream(stream.iter().copied())
            .expect("fault-free runs succeed");
        assert_accounting(&run.stats);
        for s in &run.stats {
            assert_eq!(s.pushed, s.packets, "Block loses nothing");
            assert_eq!(s.dropped, 0);
            assert_eq!(s.quarantined, 0);
            assert_eq!(s.restarts, 0);
        }
        assert!(run.quarantined.is_empty());
    }

    /// The `--overload-policy` grammar round-trips through Display.
    #[test]
    fn fault_overload_policy_parse_round_trips() {
        for (spec, policy) in [
            ("block", OverloadPolicy::Block),
            ("drop-newest", OverloadPolicy::DropNewest),
            ("drop", OverloadPolicy::DropNewest),
        ] {
            assert_eq!(OverloadPolicy::parse(spec), Ok(policy));
            assert_eq!(OverloadPolicy::parse(&policy.to_string()), Ok(policy));
        }
        assert_eq!(OverloadPolicy::default(), OverloadPolicy::Block);
        for bad in ["", "shed", "degrade", "degrade:3"] {
            assert!(
                OverloadPolicy::parse(bad).is_err(),
                "`{bad}` must not parse"
            );
        }
    }
}
