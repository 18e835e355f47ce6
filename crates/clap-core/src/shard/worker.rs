//! The consume half of the sharded engine: one shard's supervised worker
//! loop.
//!
//! **What this module knows:** how a popped packet becomes verdicts — the
//! per-shard [`StreamScorer`], the unwind barriers around it (panic →
//! quarantine → fresh flow table), in-flight accounting for a worker that
//! dies anyway, and the worker-side faults of the plan (stall, kill,
//! panic, malformed substitute). **What it must not:** how packets reach
//! its ring or what happens to the ones that do not — no overload
//! policy, no watchdog, no producer-side ring call.

use super::fault;
use super::spsc;
use super::supervise::{self, Quarantined};
use super::{ShardConfig, ShardVerdict};
use crate::pipeline::Clap;
use crate::stream::{ClosedFlow, FlowEntry, StreamScorer};
use clap_telemetry::ShardCells;
use net_packet::{CanonicalKey, Packet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What one (surviving) worker hands back at join.
pub(super) struct WorkerOutput {
    pub(super) verdicts: Vec<ShardVerdict>,
    pub(super) quarantined: Vec<Quarantined>,
    /// End-of-stream flow-table dump (empty unless
    /// [`ShardConfig::dump_flows`]).
    pub(super) flows: Vec<FlowEntry>,
}

/// One shard's supervised consume loop: pop packets from the ring into
/// this shard's [`StreamScorer`] via [`StreamScorer::push_tagged`], each
/// push and the drain after it wrapped in `catch_unwind` — a scoring
/// panic quarantines the packet and rebuilds the flow table instead of
/// killing the worker. Draining after every push means the scorer never
/// holds more than one push's closed flows, each scored as it closed.
/// The scorer itself carries each flow incarnation's first-packet arrival
/// index (on [`ClosedFlow::arrival`]) — including across restarts inside
/// a single push and through orient-buffer replays, where the buffered
/// packets keep their original tags — so the worker does no per-flow
/// bookkeeping at all: no shadow key→arrival map, no re-tag branch, no
/// fallbacks.
pub(super) fn shard_worker<'p>(
    clap: &Clap,
    config: &ShardConfig,
    shard: usize,
    ring: &spsc::Ring<(u64, &'p Packet)>,
    cells: &ShardCells,
) -> WorkerOutput {
    let plan = &config.faults;
    let mut scorer = clap.stream_scorer_with(config.stream.clone());
    // Re-home the scorer's flow-table counters and stage clocks onto the
    // shard's hub slot, so they are visible to mid-run snapshots and
    // survive this worker if it dies.
    scorer.attach_telemetry(Arc::clone(&cells.stream));
    scorer.attach_stages(Arc::clone(&cells.stages));
    let telemetry = &cells.worker;
    let mut out = WorkerOutput {
        verdicts: Vec::new(),
        quarantined: Vec::new(),
        flows: Vec::new(),
    };
    let emit = |out: &mut WorkerOutput, closed: Vec<ClosedFlow>| {
        for flow in closed {
            telemetry.flow_closed();
            out.verdicts.push(ShardVerdict {
                shard,
                arrival: flow.arrival,
                flow,
            });
        }
    };

    let consume =
        |scorer: &mut StreamScorer<'_>, out: &mut WorkerOutput, (seq, p): (u64, &Packet)| {
            if let Some(millis) = plan.stall_at(seq) {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            if plan.kill_at(seq) {
                // Deliberately outside the supervised region: models an
                // unrecoverable failure that takes the whole worker down.
                panic!(
                    "{}: hard kill at arrival {seq} (shard {shard})",
                    fault::INJECTED_TAG
                );
            }
            // The push scores every flow it closes, padded windows
            // included, so the drain is a plain take of finished verdicts;
            // a panic in the push leaves its queued verdicts to `reset`.
            let result = catch_unwind(AssertUnwindSafe(|| {
                if plan.panic_at(seq) {
                    panic!(
                        "{}: scorer panic at arrival {seq} (shard {shard})",
                        fault::INJECTED_TAG
                    );
                }
                // The substitute keeps the 4-tuple, so it is still this
                // shard's packet and the quarantine key below is its key.
                let mangled = plan.malform_at(seq).then(|| fault::malform(p));
                scorer.push_tagged(mangled.as_ref().unwrap_or(p), seq);
                scorer.drain_closed()
            }));
            match result {
                Ok(closed) => {
                    telemetry.scored();
                    emit(out, closed);
                }
                Err(payload) => {
                    // Quarantine: log the packet, throw away whatever state
                    // the unwinding push may have left half-mutated, keep
                    // going on a fresh flow table.
                    telemetry.quarantined();
                    out.quarantined.push(Quarantined {
                        shard,
                        arrival: seq,
                        key: CanonicalKey::of(p),
                        panic: supervise::panic_message(payload.as_ref()),
                    });
                    scorer.reset();
                }
            }
            telemetry.beat();
        };
    // A panic escaping `consume` (a hard kill, or a bug in the
    // quarantine path itself) takes this thread down; account for the
    // in-flight packet first so `pushed == packets + dropped +
    // quarantined` stays exact even for a dead shard, then let it fly —
    // the dispatcher picks the payload up at join.
    let supervised =
        |scorer: &mut StreamScorer<'_>, out: &mut WorkerOutput, item: (u64, &'p Packet)| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| consume(scorer, out, item))) {
                telemetry.dropped_in_flight();
                resume_unwind(payload);
            }
        };

    let mut backoff = spsc::Backoff::new();
    loop {
        while let Some(item) = ring.try_pop() {
            supervised(&mut scorer, &mut out, item);
            backoff.reset();
        }
        if ring.is_closed() {
            // Pushes that raced the close flag: one final drain after the
            // Acquire load of `closed` has ordered them before us.
            while let Some(item) = ring.try_pop() {
                supervised(&mut scorer, &mut out, item);
            }
            break;
        }
        backoff.snooze();
    }

    // The conntrack-style dump captures the table as of end of stream —
    // before the final drain below finalizes (and removes) every flow. It
    // runs model code (short flows' padded windows), so it is supervised
    // like a push.
    if config.dump_flows {
        match catch_unwind(AssertUnwindSafe(|| scorer.flow_entries())) {
            Ok(flows) => out.flows = flows,
            Err(_) => {
                telemetry.restart();
                scorer.reset();
            }
        }
    }

    // End-of-stream flush, supervised like every per-packet push: a
    // panicking flush costs the pending verdicts of this shard only.
    match catch_unwind(AssertUnwindSafe(|| scorer.finish())) {
        Ok(closed) => emit(&mut out, closed),
        Err(_) => telemetry.restart(),
    }
    out
}
