//! Property-based tests for the live telemetry plane: snapshots taken
//! *while packets flow* — from a separate sampler thread, against a
//! sharded run under randomized fault injection — must be coherent at
//! every instant: the exact shed/accounting invariant `pushed == scored +
//! dropped + quarantined` holds in every sample, every monotone counter
//! only moves forward between samples, and the end-of-run deltas agree
//! with the run's own [`ShardStats`].

use clap_core::{
    Clap, ClapConfig, FaultPlan, OverloadPolicy, QuantMode, ShardConfig, StreamConfig,
    TelemetrySnapshot,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// One trained detector shared across property cases (training dominates
/// runtime; per-case work is scoring only).
fn model() -> &'static Clap {
    static MODEL: OnceLock<Clap> = OnceLock::new();
    MODEL.get_or_init(|| {
        clap_core::shard::fault::silence_injected_panics();
        let benign = traffic_gen::dataset(79, 20);
        let mut cfg = ClapConfig::ci();
        cfg.ae.epochs = 8;
        Clap::train(&benign, &cfg).0
    })
}

/// An interleaved packet stream over a generated corpus.
fn stream_for(seed: u64) -> Vec<net_packet::Packet> {
    let conns = traffic_gen::dataset(seed ^ 0x7e1e, 6);
    let mut stream: Vec<net_packet::Packet> = conns
        .iter()
        .flat_map(|c| c.packets.iter().cloned())
        .collect();
    stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    stream
}

/// Engine precision, drawn per case: the properties below must hold in
/// every engine mode, not only in the one `StreamConfig::default()`
/// names.
fn engine_modes() -> impl Strategy<Value = QuantMode> {
    prop_oneof![Just(QuantMode::Off), Just(QuantMode::Int8)]
}

fn config(shards: usize, queue_capacity: usize, quant: QuantMode) -> ShardConfig {
    ShardConfig {
        shards,
        queue_capacity,
        stream: StreamConfig {
            teardown_on_close: false,
            quant,
            ..StreamConfig::default()
        },
        ..ShardConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A sampler thread hammering [`TelemetryHub::snapshot`] while a
    /// faulted sharded run is in flight sees, at *every* sample, the
    /// exact accounting invariant and per-counter monotonicity — the
    /// seqlock cut is coherent mid-run, not just at join.
    #[test]
    fn telemetry_midrun_snapshots_stay_coherent_under_faults(
        seed in 0u64..10_000,
        shards in prop_oneof![Just(2usize), Just(4usize)],
        queue_capacity in 1usize..16,
        policy in prop_oneof![
            Just(OverloadPolicy::Block),
            Just(OverloadPolicy::DropNewest),
        ],
        quant in engine_modes(),
    ) {
        let clap = model();
        let stream = stream_for(seed);
        let mut cfg = config(shards, queue_capacity, quant);
        cfg.overload = policy;
        cfg.faults = FaultPlan::randomized(seed, stream.len() as u64);
        let scorer = clap.sharded_scorer_with(cfg);
        let hub = scorer.telemetry();

        let stop = AtomicBool::new(false);
        let (run, samples) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut taken = 0u64;
                let mut prev: Option<TelemetrySnapshot> = None;
                // Snapshot, then test `stop`: a run that finishes before
                // this thread is first scheduled still gets one sample.
                loop {
                    let snap = hub.snapshot();
                    snap.check_invariants()?;
                    if let Some(p) = &prev {
                        TelemetrySnapshot::check_monotonic(p, &snap)?;
                    }
                    prev = Some(snap);
                    taken += 1;
                    if stop.load(Ordering::Relaxed) {
                        return Ok::<u64, String>(taken);
                    }
                }
            });
            let run = scorer
                .try_score_stream(stream.iter())
                .expect("recoverable faults must not fail the run");
            stop.store(true, Ordering::Relaxed);
            (run, sampler.join().expect("sampler must not panic"))
        });
        let samples = samples.unwrap_or_else(|e| panic!("mid-run snapshot incoherent: {e}"));
        prop_assert!(samples > 0, "sampler never ran");

        // At rest, the hub deltas are exactly the run's ShardStats: the
        // wait-free cells and the classical accounting agree.
        let end = hub.snapshot();
        prop_assert!(end.check_invariants().is_ok());
        for st in &run.stats {
            let e = &end.shards[st.shard];
            prop_assert_eq!(e.pushed, st.pushed);
            prop_assert_eq!(e.dispatched, st.pushed);
            prop_assert_eq!(e.scored, st.packets);
            prop_assert_eq!(e.dropped, st.dropped);
            prop_assert_eq!(e.quarantined, st.quarantined);
            prop_assert_eq!(e.restarts, st.restarts);
            prop_assert_eq!(e.flows_closed, st.flows_closed);
            prop_assert_eq!(e.full_waits, st.full_waits);
            prop_assert_eq!(e.in_flight, 0u64, "nothing in flight at rest");
            prop_assert_eq!(e.live_flows, 0u64, "final drain closed everything");
            prop_assert_eq!(e.flows_peak as usize, st.stream.flows_peak);
        }
    }

    /// The conntrack-style dump: with `dump_flows` on, the end-of-stream
    /// flow table comes back sorted by arrival, keyed consistently with
    /// the verdicts, and with per-flow packet counts that never exceed
    /// what the shard scored.
    #[test]
    fn telemetry_flow_dump_is_consistent(
        seed in 0u64..10_000,
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        quant in engine_modes(),
    ) {
        let clap = model();
        let stream = stream_for(seed);
        let mut cfg = config(shards, stream.len().max(1), quant);
        cfg.dump_flows = true;
        // Keep flows alive to the end so the dump is non-trivial.
        cfg.stream.idle_timeout = 1e9;
        let scorer = clap.sharded_scorer_with(cfg);
        let run = scorer
            .try_score_stream(stream.iter())
            .expect("fault-free run succeeds");
        prop_assert!(!run.flows.is_empty(), "idle timeout off: flows must survive to the dump");
        prop_assert!(
            run.flows.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "dump is sorted by arrival"
        );
        let dumped_packets: u64 = run.flows.iter().map(|f| f.packets).sum();
        let scored: u64 = run.stats.iter().map(|s| s.packets).sum();
        prop_assert!(dumped_packets <= scored);
        for f in &run.flows {
            prop_assert!(f.first_seen <= f.last_seen);
            prop_assert!(f.score.is_finite());
            // A flow still orientation-buffering has scored nothing yet;
            // any flow with scored packets has accumulated their bytes.
            prop_assert!(f.packets == 0 || f.bytes > 0);
        }
        // Every drained verdict's flow appears in the dump (drained ==
        // alive at end of stream), under the same canonical key.
        use std::collections::HashSet;
        let dumped: HashSet<_> = run
            .flows
            .iter()
            .map(|f| net_packet::CanonicalKey::of_key(&f.key))
            .collect();
        for v in &run.verdicts {
            if v.flow.reason == clap_core::CloseReason::Drained {
                prop_assert!(
                    dumped.contains(&net_packet::CanonicalKey::of_key(&v.flow.key)),
                    "drained flow missing from the dump"
                );
            }
        }
    }
}
