//! Property-based tests for the supervised sharded engine's fault
//! tolerance: isolation, accounting and determinism under randomized
//! injected fault schedules — the acceptance invariants of the
//! supervision work.

use clap_core::{
    Clap, ClapConfig, Fault, FaultPlan, OverloadPolicy, QuantMode, ShardConfig, ShardHealth,
    ShardedRun, StreamConfig,
};
use net_packet::CanonicalKey;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained detector shared across property cases (training dominates
/// runtime; per-case work is scoring only).
fn model() -> &'static Clap {
    static MODEL: OnceLock<Clap> = OnceLock::new();
    MODEL.get_or_init(|| {
        clap_core::shard::fault::silence_injected_panics();
        let benign = traffic_gen::dataset(78, 20);
        let mut cfg = ClapConfig::ci();
        cfg.ae.epochs = 8;
        Clap::train(&benign, &cfg).0
    })
}

/// An interleaved packet stream over a generated corpus.
fn stream_for(seed: u64) -> Vec<net_packet::Packet> {
    let conns = traffic_gen::dataset(seed ^ 0xfa17, 6);
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

/// Bitwise verdict fingerprint: arrival, flow size, owning shard, exact
/// score bits.
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

// Every case replays the full corpus through the sharded engine (twice
// for the determinism and isolation properties), so case budgets are
// kept deliberately small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under a randomized schedule of recoverable faults (panics,
    /// stalls, forced bursts, malformed packets) and any overload
    /// policy, the run completes and the exact accounting invariant
    /// `pushed == scored + dropped + quarantined` holds on every shard,
    /// with the pushed total covering the whole stream.
    #[test]
    fn fault_randomized_schedules_preserve_accounting(
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
        let run = clap
            .sharded_scorer_with(cfg)
            .try_score_stream(stream.iter())
            .expect("recoverable faults must not fail the run");
        let accounting = ShardHealth::check_accounting(&run.stats);
        prop_assert!(accounting.is_ok(), "{:?}", accounting);
        let health = ShardHealth::of(&run.stats);
        prop_assert_eq!(health.pushed as usize, stream.len(), "every packet dispatched");
        prop_assert_eq!(
            health.quarantined as usize,
            run.quarantined.len(),
            "quarantine log matches the counters"
        );
        // Flows only shrink under shed policies; verdicts never exceed
        // what the scored packets can open.
        let scored_in_verdicts: usize = run.verdicts.iter().map(|v| v.flow.packets).sum();
        prop_assert!(scored_in_verdicts as u64 <= health.scored);
    }

    /// The acceptance-pinned isolation property: with a `FaultPlan`
    /// panicking one shard mid-run, the run completes and every flow
    /// owned by a *surviving* shard produces a verdict byte-identical to
    /// the fault-free run — quarantine and restart leak nothing across
    /// the partition.
    #[test]
    fn fault_panic_isolation_leaves_survivors_bitwise_identical(
        seed in 0u64..10_000,
        arrival_pick in 0usize..1_000,
        queue_capacity in 1usize..16,
        quant in engine_modes(),
    ) {
        let clap = model();
        let stream = stream_for(seed);
        let shards = 4;
        let arrival = (arrival_pick % stream.len()) as u64;
        let victim = CanonicalKey::of(&stream[arrival as usize]).shard_of(shards);

        let clean = clap
            .sharded_scorer_with(config(shards, queue_capacity, quant))
            .try_score_stream(stream.iter())
            .expect("fault-free run succeeds");
        let mut cfg = config(shards, queue_capacity, quant);
        cfg.faults = FaultPlan::none().with(Fault::PanicAt { arrival });
        let faulted = clap
            .sharded_scorer_with(cfg)
            .try_score_stream(stream.iter())
            .expect("a supervised panic must not fail the run");

        let accounting = ShardHealth::check_accounting(&faulted.stats);
        prop_assert!(accounting.is_ok(), "{:?}", accounting);
        prop_assert_eq!(faulted.quarantined.len(), 1);
        prop_assert_eq!(faulted.quarantined[0].arrival, arrival);
        prop_assert_eq!(faulted.stats[victim].quarantined, 1);
        let survivors = |run: &ShardedRun| -> Vec<(u64, usize, usize, u32)> {
            fingerprint(run)
                .into_iter()
                .filter(|&(_, _, shard, _)| shard != victim)
                .collect()
        };
        prop_assert_eq!(
            survivors(&clean),
            survivors(&faulted),
            "surviving shards must be byte-identical to the fault-free run"
        );
    }

    /// Run-to-run determinism under faults: the same seed-derived plan
    /// replayed twice over the same stream yields byte-identical
    /// verdicts, stats and quarantine logs. (Real ring occupancy never
    /// sheds here — the capacity exceeds the stream — so shed decisions
    /// come only from the plan's deterministic forced bursts.)
    #[test]
    fn fault_same_seed_is_byte_identical_across_runs(
        seed in 0u64..10_000,
        policy in prop_oneof![
            Just(OverloadPolicy::Block),
            Just(OverloadPolicy::DropNewest),
        ],
        quant in engine_modes(),
    ) {
        let clap = model();
        let stream = stream_for(seed);
        let mut cfg = config(4, stream.len().max(1), quant);
        cfg.overload = policy;
        cfg.faults = FaultPlan::randomized(seed, stream.len() as u64);
        let run = |c: ShardConfig| {
            clap.sharded_scorer_with(c)
                .try_score_stream(stream.iter())
                .expect("recoverable faults must not fail the run")
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b), "verdicts diverged");
        prop_assert_eq!(a.stats, b.stats, "stats diverged");
        prop_assert_eq!(a.quarantined, b.quarantined, "quarantine logs diverged");
    }
}
