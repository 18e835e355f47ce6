//! The dispatch half of the sharded engine: which shard a packet goes to,
//! and what happens when that shard's ring is full.
//!
//! **What this module knows:** the [`OverloadPolicy`], the fault plan's
//! forced-full bursts, the stuck-shard watchdog, and which shards are cut
//! off, all behind [`Dispatcher::offer`]. **What it must not:** what a
//! worker does with a packet. It sees a worker only as a ring to push
//! into, a heartbeat cell and an "is the thread finished" probe, and it
//! never scores, supervises or unwinds anything — which is why it is
//! tested against bare rings with no model in sight.

use super::spsc;
use super::supervise::{ShardFailure, ShardFailureKind};
use super::ShardConfig;
use clap_telemetry::TelemetryHub;
use net_packet::{CanonicalKey, Packet};

/// What the dispatcher does with a packet whose shard's ingest ring is
/// full. See the [module-level](super) "Failure modes & overload
/// policies" section for the guarantees each variant keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Spin (spin-then-yield) until the ring frees a slot. Zero loss and
    /// bitwise determinism, at the price of unbounded dispatch latency
    /// behind a slow shard. The pre-supervision behavior.
    #[default]
    Block,
    /// Shed the packet that found the ring full (counted per shard in
    /// [`ShardSnapshot::dropped`](crate::ShardSnapshot::dropped)). Bounded
    /// dispatch latency, bounded loss.
    DropNewest,
}

impl OverloadPolicy {
    /// Parses the `--overload-policy` CLI grammar: `block` or
    /// `drop-newest` (or `drop`).
    pub fn parse(spec: &str) -> Result<OverloadPolicy, String> {
        match spec {
            "block" => Ok(OverloadPolicy::Block),
            "drop-newest" | "drop" => Ok(OverloadPolicy::DropNewest),
            other => Err(format!(
                "unknown overload policy `{other}` (expected block/drop-newest)"
            )),
        }
    }
}

impl std::fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadPolicy::Block => write!(f, "block"),
            OverloadPolicy::DropNewest => write!(f, "drop-newest"),
        }
    }
}

/// The dispatch loop's state for one run: one [`offer`](Self::offer) per
/// packet of the stream, then [`finish`](Self::finish).
pub(super) struct Dispatcher<'q, 'p, F> {
    /// Read for `overload`, `watchdog_limit` and the `faults` plan's
    /// forced-full bursts.
    config: &'q ShardConfig,
    queues: &'q [spsc::Ring<(u64, &'p Packet)>],
    hub: &'q TelemetryHub,
    /// Whether shard `i`'s worker thread has terminated.
    worker_finished: F,
    /// Per shard: cut off — the worker died or was declared stuck; every
    /// further packet addressed there is shed.
    dead: Vec<bool>,
    /// Shards the watchdog declared stuck, in the order it did.
    stuck: Vec<ShardFailure>,
}

impl<'q, 'p, F: Fn(usize) -> bool> Dispatcher<'q, 'p, F> {
    /// A dispatcher over one ring and one `hub` slot per shard.
    pub(super) fn new(
        config: &'q ShardConfig,
        queues: &'q [spsc::Ring<(u64, &'p Packet)>],
        hub: &'q TelemetryHub,
        worker_finished: F,
    ) -> Self {
        Dispatcher {
            config,
            queues,
            hub,
            worker_finished,
            dead: vec![false; queues.len()],
            stuck: Vec::new(),
        }
    }

    /// Addresses `p`, the stream's `seq`-th packet, to its shard — the
    /// symmetric RSS hash of its 4-tuple — and delivers or sheds it
    /// under the overload policy. Either way the packet is accounted
    /// exactly once: counted `dispatched`, then pushed into the ring (the
    /// worker accounts for it from there) or counted shed.
    pub(super) fn offer(&mut self, seq: u64, p: &'p Packet) {
        let shard = CanonicalKey::of(p).shard_of(self.queues.len());
        let (ring, cells) = (&self.queues[shard], self.hub.shard(shard));
        cells.dispatch.dispatched_inc();
        if self.dead[shard] {
            cells.dispatch.shed();
            return;
        }
        // A forced burst makes the ring *look* full to the policy
        // without being full, so shed decisions are reproducible.
        let forced = self.config.faults.forced_full(seq);
        match self.config.overload {
            OverloadPolicy::Block => {
                if forced {
                    cells.dispatch.full_wait();
                }
                self.deliver(shard, (seq, p));
            }
            OverloadPolicy::DropNewest => {
                if forced || ring.try_push((seq, p)).is_err() {
                    cells.dispatch.shed();
                }
            }
        }
    }

    /// Pushes `item` into `shard`'s ring, spinning while it is full and
    /// watching the worker's liveness (thread finished) and progress
    /// (heartbeat) meanwhile. A *slow* worker keeps its heartbeat moving
    /// and resets the frozen count, so only a genuinely wedged shard is
    /// ever declared stuck; that one, like a finished worker's, is cut off
    /// and the packet shed.
    fn deliver(&mut self, shard: usize, mut item: (u64, &'p Packet)) {
        let (ring, cells) = (&self.queues[shard], self.hub.shard(shard));
        let mut backoff = spsc::Backoff::new();
        let mut stalled = false;
        let mut beat = 0u64;
        let mut frozen_iters = 0u64;
        loop {
            match ring.try_push(item) {
                Ok(()) => {
                    if stalled {
                        cells.dispatch.full_wait();
                    }
                    return;
                }
                Err(back) => item = back,
            }
            if (self.worker_finished)(shard) {
                // It will never drain; the join records the `Died`
                // failure, with the actual panic message.
                break;
            }
            let now = cells.worker.heartbeat();
            if !stalled || now != beat {
                stalled = true;
                beat = now;
                frozen_iters = 0;
            } else {
                frozen_iters += 1;
                if frozen_iters >= self.config.watchdog_limit.max(1) {
                    self.stuck.push(ShardFailure {
                        shard,
                        kind: ShardFailureKind::Stuck { heartbeat: now },
                    });
                    break;
                }
            }
            backoff.snooze();
        }
        self.dead[shard] = true;
        cells.dispatch.shed();
    }

    /// Ends the dispatch loop: the shards the watchdog declared stuck.
    pub(super) fn finish(self) -> Vec<ShardFailure> {
        self.stuck
    }
}

#[cfg(test)]
mod tests {
    use super::super::fault::{Fault, FaultPlan};
    use super::*;
    use clap_telemetry::ShardSnapshot;
    use net_packet::{Ipv4Header, TcpHeader};
    use std::cell::Cell;
    use std::net::Ipv4Addr;

    const SHARDS: usize = 3;

    /// `n` packets round-robin over `flows` flows (client port = flow).
    fn stream(flows: u16, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let ip =
                    Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
                let port = 1024 + (i as u16 % flows);
                Packet::new(i as f64, ip, TcpHeader::new(port, 80, 1000, 0), Vec::new())
            })
            .collect()
    }

    fn config(overload: OverloadPolicy, faults: FaultPlan) -> ShardConfig {
        ShardConfig {
            shards: SHARDS,
            overload,
            watchdog_limit: 50,
            faults,
            ..ShardConfig::default()
        }
    }

    fn rings<'p>(capacity: usize) -> Vec<spsc::Ring<(u64, &'p Packet)>> {
        (0..SHARDS).map(|_| spsc::Ring::new(capacity)).collect()
    }

    fn shard_of(p: &Packet) -> usize {
        CanonicalKey::of(p).shard_of(SHARDS)
    }

    /// Offers `packets` to rings nobody consumes (big enough never to
    /// fill) and returns, per shard, the arrival indices delivered.
    fn dispatch(config: &ShardConfig, hub: &TelemetryHub, packets: &[Packet]) -> Vec<Vec<u64>> {
        let queues = rings(packets.len().max(1));
        let mut d = Dispatcher::new(config, &queues, hub, |_| false);
        for (seq, p) in packets.iter().enumerate() {
            d.offer(seq as u64, p);
        }
        assert!(d.finish().is_empty());
        let delivered = |q: &spsc::Ring<(u64, &Packet)>| {
            std::iter::from_fn(|| q.try_pop())
                .map(|(seq, p)| {
                    assert!(
                        std::ptr::eq(p, &packets[seq as usize]),
                        "tag matches packet"
                    );
                    seq
                })
                .collect()
        };
        queues.iter().map(delivered).collect()
    }

    /// For every policy, a forced burst sheds exactly the set the policy
    /// defines — nothing (`Block`), the whole burst (`DropNewest`) — and
    /// each shard's `dispatched == delivered + shed`.
    #[test]
    fn dispatch_sheds_exactly_the_policys_set_of_a_forced_burst() {
        let packets = stream(5, 60);
        let burst = 10u64..37;
        let plan = || {
            FaultPlan::none().with(Fault::FullBurst {
                from: burst.start,
                until: burst.end,
            })
        };
        for policy in [OverloadPolicy::Block, OverloadPolicy::DropNewest] {
            // The shed set, from the policy's definition.
            let mut expect: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
            let mut addressed = [0u64; SHARDS];
            for (seq, p) in (0u64..).zip(&packets) {
                addressed[shard_of(p)] += 1;
                let shed = burst.contains(&seq) && policy == OverloadPolicy::DropNewest;
                if !shed {
                    expect[shard_of(p)].push(seq);
                }
            }

            let hub = TelemetryHub::new(SHARDS);
            let got = dispatch(&config(policy, plan()), &hub, &packets);
            assert_eq!(got, expect, "{policy}: delivered arrivals per shard");
            let snap = hub.snapshot();
            for (i, s) in snap.iter().enumerate() {
                assert_eq!(s.dispatched, addressed[i], "{policy}: shard {i} dispatched");
                assert_eq!(
                    s.dispatched,
                    got[i].len() as u64 + s.dropped,
                    "{policy}: shard {i} dispatched == delivered + shed"
                );
            }
            let forced_waits = ShardSnapshot::total(&snap).full_waits;
            let blocked = if policy == OverloadPolicy::Block {
                burst.end - burst.start
            } else {
                0
            };
            assert_eq!(forced_waits, blocked, "{policy}: full_waits");
        }
    }

    /// A full ring whose worker's heartbeat never moves is declared stuck
    /// after exactly `watchdog_limit` frozen waits (one more probe than
    /// that: the first wait takes the reading) and is cut off; the same
    /// ring with a heartbeat that keeps moving is waited on for as long
    /// as it takes.
    #[test]
    fn dispatch_watchdog_trips_at_the_limit_and_only_on_a_frozen_heartbeat() {
        let packets = stream(1, 4);
        let home = shard_of(&packets[0]);
        let cfg = config(OverloadPolicy::Block, FaultPlan::none());

        let (hub, queues) = (TelemetryHub::new(SHARDS), rings(1));
        let probes = Cell::new(0u64);
        let frozen = |_| {
            probes.set(probes.get() + 1);
            false
        };
        let mut d = Dispatcher::new(&cfg, &queues, &hub, frozen);
        d.offer(0, &packets[0]);
        assert_eq!(probes.get(), 0, "a free slot needs no wait");
        d.offer(1, &packets[1]);
        assert_eq!(probes.get(), cfg.watchdog_limit + 1);
        d.offer(2, &packets[2]);
        assert_eq!(
            probes.get(),
            cfg.watchdog_limit + 1,
            "a cut-off shard is not retried"
        );
        let stuck = ShardFailure {
            shard: home,
            kind: ShardFailureKind::Stuck { heartbeat: 0 },
        };
        assert_eq!(d.finish(), [stuck]);
        let s = hub.snapshot()[home];
        assert_eq!((s.dispatched, s.dropped, s.full_waits), (3, 2, 0));
        assert_eq!(queues[home].len(), 1, "only arrival 0 was delivered");

        // Same full ring, but every probe sees a new heartbeat; the slot
        // frees only after twenty limits' worth of waiting.
        let (hub, queues) = (TelemetryHub::new(SHARDS), rings(1));
        let probes = Cell::new(0u64);
        let slow = |shard: usize| {
            probes.set(probes.get() + 1);
            hub.shard(shard).worker.beat();
            if probes.get() == 20 * cfg.watchdog_limit {
                assert!(queues[shard].try_pop().is_some());
            }
            false
        };
        let mut d = Dispatcher::new(&cfg, &queues, &hub, slow);
        d.offer(0, &packets[0]);
        d.offer(1, &packets[1]);
        assert!(d.finish().is_empty(), "a slow shard is never flagged");
        assert_eq!(probes.get(), 20 * cfg.watchdog_limit);
        let s = hub.snapshot()[home];
        assert_eq!((s.dispatched, s.dropped, s.full_waits), (2, 0, 1));
        assert_eq!(queues[home].try_pop().map(|(seq, _)| seq), Some(1));
    }

    /// A worker that has terminated behind a full ring is cut off at the
    /// first probe, without a failure record of the dispatcher's own (the
    /// join reports the death, with its panic message).
    #[test]
    fn dispatch_cuts_off_a_finished_worker() {
        let packets = stream(1, 5);
        let home = shard_of(&packets[0]);
        let cfg = config(OverloadPolicy::Block, FaultPlan::none());
        let (hub, queues) = (TelemetryHub::new(SHARDS), rings(1));
        let mut d = Dispatcher::new(&cfg, &queues, &hub, |_| true);
        for (seq, p) in (0u64..).zip(&packets) {
            d.offer(seq, p);
        }
        assert!(d.finish().is_empty());
        let s = hub.snapshot()[home];
        assert_eq!((s.dispatched, s.dropped, s.full_waits), (5, 4, 0));
        assert_eq!(queues[home].try_pop().map(|(seq, _)| seq), Some(0));
        assert!(queues[home].is_empty());
    }
}
