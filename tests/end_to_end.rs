//! Cross-crate integration tests: the full train → attack → detect →
//! localize loop, exercised exactly as a downstream user would.

use clap_repro::baselines::{KitsuneConfig, KitsuneLite};
use clap_repro::clap_core::{
    auc_roc, extract_connection, score_errors, Clap, ClapConfig, CloseReason, ClosedFlow,
    EvictionMode, Fault, FaultPlan, OverloadPolicy, ProfileBuilder, QuantMode, ResidentMode,
    ShardConfig, ShardHealth, StreamConfig,
};
use clap_repro::dpi_attacks::{self, registry, AttackSource};
use clap_repro::neural::KernelSet;
use clap_repro::traffic_gen::{self, ChurnConfig};
use net_packet::{CanonicalKey, Packet};
use std::collections::{HashMap, HashSet};

fn trained() -> (Clap, Vec<net_packet::Connection>, Vec<f32>) {
    let benign = traffic_gen::dataset(0xe2e, 80);
    let (clap, summary) = Clap::train(&benign, &ClapConfig::ci());
    assert!(
        summary.rnn_accuracy > 0.6,
        "rnn accuracy {}",
        summary.rnn_accuracy
    );
    let held_out = traffic_gen::dataset(0xe2f, 25);
    let benign_scores: Vec<f32> = clap
        .score_connections(&held_out)
        .iter()
        .map(|s| s.score)
        .collect();
    (clap, held_out, benign_scores)
}

#[test]
fn clap_separates_attacks_from_benign() {
    let (clap, held_out, benign_scores) = trained();
    let mut scorer = clap.scorer();
    // One representative strategy per source paper.
    for id in [
        "symtcp-snort-rst-pure",
        "liberate-bad-tcp-checksum-max",
        "geneva-rst-bad-chksum",
    ] {
        let strategy = dpi_attacks::strategy_by_id(id).unwrap();
        let attacked = dpi_attacks::build_adversarial_set(strategy, &held_out, 5);
        assert!(!attacked.is_empty());
        let adv_scores: Vec<f32> = attacked
            .iter()
            .map(|r| scorer.score_connection(&r.connection).score)
            .collect();
        let auc = auc_roc(&benign_scores, &adv_scores);
        // CI-budget bound: the quick/paper presets score well above this
        // (see EXPERIMENTS.md); at 15 AE epochs 0.75 is the safe floor.
        assert!(auc > 0.75, "{id}: AUC {auc} too low for CLAP");
    }
}

#[test]
fn clap_beats_kitsune_on_dpi_evasion() {
    let benign = traffic_gen::dataset(0xcafe, 60);
    let (clap, _) = Clap::train(&benign, &ClapConfig::ci());
    let kitsune = KitsuneLite::train(&benign, &KitsuneConfig::default());
    let held_out = traffic_gen::dataset(0xcaff, 20);
    let clap_benign: Vec<f32> = clap
        .score_connections(&held_out)
        .iter()
        .map(|s| s.score)
        .collect();
    let kit_benign: Vec<f32> = kitsune
        .score_connections(&held_out)
        .iter()
        .map(|s| s.score)
        .collect();

    let strategy = dpi_attacks::strategy_by_id("symtcp-zeek-data-bad-seq").unwrap();
    let attacked = dpi_attacks::build_adversarial_set(strategy, &held_out, 5);
    let mut scorer = clap.scorer();
    let clap_adv: Vec<f32> = attacked
        .iter()
        .map(|r| scorer.score_connection(&r.connection).score)
        .collect();
    let kit_adv: Vec<f32> = attacked
        .iter()
        .map(|r| kitsune.score_connection(&r.connection).score)
        .collect();
    let clap_auc = auc_roc(&clap_benign, &clap_adv);
    let kit_auc = auc_roc(&kit_benign, &kit_adv);
    assert!(
        clap_auc > kit_auc + 0.2,
        "CLAP ({clap_auc}) must clearly beat Kitsune ({kit_auc})"
    );
}

#[test]
fn localization_finds_injected_packets() {
    let (clap, held_out, _) = trained();
    let strategy = dpi_attacks::strategy_by_id("geneva-rst-bad-chksum").unwrap();
    let attacked = dpi_attacks::build_adversarial_set(strategy, &held_out, 5);
    let mut top5_hits = 0;
    let mut scorer = clap.scorer();
    for r in &attacked {
        let s = scorer.score_connection(&r.connection);
        if r.adversarial_indices
            .iter()
            .any(|&t| s.peak_packet.abs_diff(t) <= 2)
        {
            top5_hits += 1;
        }
    }
    assert!(
        top5_hits * 3 >= attacked.len() * 2,
        "Top-5 localization too weak: {top5_hits}/{}",
        attacked.len()
    );
}

/// Both engine precisions, on the quickstart model: packets pushed one at a
/// time through a `StreamScorer` and whole connections through a
/// `ClapScorer` run the same per-packet core, so they agree bitwise — what
/// this pins is the flow table around it (orientation, padding, draining).
/// The f32 engines also stay within 1e-6 of the forward pass the model was
/// trained through (`GruCell::forward` + `Dense::forward_into` on the
/// row-major weights, a whole connection at a time).
#[test]
fn streaming_equals_batch_at_both_precisions_and_f32_tracks_the_training_forward_pass() {
    let benign = traffic_gen::dataset(42, 120);
    let (clap, _) = Clap::train(&benign, &ClapConfig::ci());
    let unseen = traffic_gen::dataset(44, 5);
    let strategy = dpi_attacks::strategy_by_id("geneva-rst-bad-chksum").unwrap();
    let attacked: Vec<_> = dpi_attacks::build_adversarial_set(strategy, &unseen, 7)
        .into_iter()
        .map(|r| r.connection)
        .collect();
    assert!(!attacked.is_empty());

    for quant in [QuantMode::Off, QuantMode::Int8] {
        let mut batch = clap.scorer_with(quant);
        // An attacked connection keeps its victim's 4-tuple: one table each.
        for conns in [&unseen, &attacked] {
            let mut stream = clap.stream_scorer_with(StreamConfig {
                // Score past teardown, like batch scoring of a full capture.
                teardown_on_close: false,
                quant,
                ..StreamConfig::default()
            });
            for packet in conns.iter().flat_map(|c| &c.packets) {
                stream.push(packet);
            }
            let closed = stream.finish();
            assert_eq!(closed.len(), conns.len(), "one flow per connection");
            for conn in conns {
                let streamed = &closed.iter().find(|f| f.key == conn.key).unwrap().scored;
                let batched = batch.score_connection(conn);
                let bits = |errors: &[f32]| errors.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&streamed.window_errors), bits(&batched.window_errors));
                assert_eq!(streamed.score.to_bits(), batched.score.to_bits());
                assert_eq!(streamed.peak_packet, batched.peak_packet);
                if quant != QuantMode::Off {
                    continue;
                }

                let stacked = ProfileBuilder::new(clap.config.stack).stacked_profiles(
                    &clap.ranges,
                    &clap.rnn,
                    &extract_connection(conn),
                );
                let trained = clap.ae.reconstruction_errors(&stacked);
                assert_eq!(batched.window_errors.len(), trained.len());
                for (b, t) in batched.window_errors.iter().zip(&trained) {
                    assert!((b - t).abs() <= 1e-6, "engine {b} vs training pass {t}");
                }
                let (_, score) = score_errors(&trained, clap.config.score_window);
                assert!((batched.score - score).abs() <= 1e-6);
            }
        }
    }
}

/// Every path through the flow table — open, slab growth, slot recycling,
/// capacity eviction, 4-tuple reuse after teardown and idle expiry —
/// at int8 weights and int8 resident state, through the public API: the
/// expiry queue (`EvictionMode::Wheel`) and the full-scan reference close
/// the same flows with the same bits, and every packet pushed is in
/// exactly one verdict.
///
/// The stream has two acts because the two modes may only be compared
/// while handles cannot matter: two flows that expire at one sweep
/// boundary are closed — so their slots are recycled — in queue order or
/// in slab order. Act one therefore overfills the 64-flow table inside
/// 30 ms of packet time, before any timeout can run out; act two, three
/// seconds later, opens its first flow after a sweep boundary has expired
/// act one's, stays under the cap and lets its own time out.
#[test]
fn churn_through_a_small_table_closes_the_same_flows_under_wheel_and_sweep() {
    const SWEEP: usize = 16;
    let mut model = ClapConfig::ci();
    model.ae.epochs = 8; // the scores must be equal, not good
    let (clap, _) = Clap::train(&traffic_gen::dataset(0xe2e, 20), &model);
    let scorer = |eviction| {
        clap.stream_scorer_with(StreamConfig {
            max_flows: 64,
            idle_timeout: 2.0,
            sweep_interval: SWEEP,
            quant: QuantMode::Int8,
            resident: ResidentMode::Int8,
            eviction,
            ..StreamConfig::default()
        })
    };

    // Act one: 80 concurrent flows into 64 slots, then `REDIALS` redials.
    // Its packet budget leaves the stream one packet short of a sweep
    // boundary, which act two's first packet then reaches.
    const REDIALS: usize = 7;
    let mut burst = ChurnConfig::new(0xc4a, 80, 188 * SWEEP - 1 - REDIALS);
    burst.pps = 1e5;
    let mut packets: Vec<Packet> = traffic_gen::churn(&burst).collect();
    assert_eq!(packets.len(), burst.packets, "churn emits its whole budget");
    let syn_of: HashMap<CanonicalKey, Packet> = packets
        .iter()
        .filter(|p| p.tcp_flags() == net_packet::TcpFlags::SYN)
        .map(|p| (CanonicalKey::of(p), p.clone()))
        .collect();
    // As act one ends, the last flows to hang up — whose 4-tuples no live
    // flow holds — dial the same 4-tuple again.
    let mut scout = scorer(EvictionMode::Wheel);
    for p in &packets {
        scout.push(p);
    }
    let now = packets.last().unwrap().timestamp;
    let mut taken: HashSet<CanonicalKey> = scout
        .flow_entries()
        .iter()
        .map(|e| CanonicalKey::of_key(&e.key))
        .collect();
    let redials: Vec<Packet> = scout
        .drain_closed()
        .iter()
        .rev()
        .filter(|f| f.reason == CloseReason::TcpClose && taken.insert(CanonicalKey::of_key(&f.key)))
        .take(REDIALS)
        .map(|f| Packet {
            timestamp: now,
            ..syn_of[&CanonicalKey::of_key(&f.key)].clone()
        })
        .collect();
    assert_eq!(
        redials.len(),
        REDIALS,
        "act one closed too few TcpClose flows with a free 4-tuple to redial"
    );
    for p in &redials {
        scout.push(p);
    }
    let act_one_evictions = scout.stats().evicted_capacity;
    assert!(act_one_evictions > 0);
    let first_redial = packets.len();
    packets.extend(redials.iter().cloned());

    // Act two: 24 concurrent flows, a fifth of them abandoned mid-transfer.
    let mut trickle = ChurnConfig::new(0xc4b, 24, 2_000);
    trickle.pps = 200.0;
    trickle.p_abandon = 0.2;
    let act_two: Vec<Packet> = traffic_gen::churn(&trickle).collect();
    let shift = now + 3.0 - act_two[0].timestamp;
    packets.extend(act_two.into_iter().map(|p| Packet {
        timestamp: p.timestamp + shift,
        ..p
    }));

    let run = |eviction| {
        let mut s = scorer(eviction);
        for p in &packets {
            s.push(p);
        }
        let mut closed = s.finish();
        closed.sort_by_key(|f| f.arrival);
        (closed, s.stats())
    };
    let (wheel, wheel_stats) = run(EvictionMode::Wheel);
    let (sweep, sweep_stats) = run(EvictionMode::Sweep);

    assert_eq!(wheel_stats, sweep_stats);
    assert!(wheel_stats.evicted_idle > 0);
    assert_eq!(wheel_stats.flows_peak, 64, "the slab stops at the cap");
    assert_eq!(
        wheel_stats.evicted_capacity, act_one_evictions,
        "act two must stay under the cap"
    );
    // Plain `push` tags a flow with its first packet's stream position:
    // each redial opened a new incarnation of its 4-tuple under its own
    // tag, and nothing else joined it before act two's idle sweep.
    for (tag, redial) in (first_redial..).zip(&redials) {
        let flow = wheel.iter().find(|f| f.arrival == tag as u64);
        let flow = flow.unwrap_or_else(|| panic!("redial {tag} opened no flow"));
        assert_eq!(
            CanonicalKey::of_key(&flow.key),
            CanonicalKey::of(redial),
            "redial {tag}"
        );
        assert_eq!((flow.packets, flow.reason), (1, CloseReason::IdleTimeout));
    }
    let pushed: usize = wheel.iter().map(|f| f.packets).sum();
    assert_eq!(
        pushed,
        packets.len(),
        "a packet was dropped or counted twice"
    );
    let bits = |f: &ClosedFlow| {
        let errors: Vec<u32> = f.scored.window_errors.iter().map(|e| e.to_bits()).collect();
        (
            f.key,
            f.packets,
            f.reason,
            f.arrival,
            errors,
            f.scored.score.to_bits(),
        )
    };
    assert_eq!(
        wheel.iter().map(bits).collect::<Vec<_>>(),
        sweep.iter().map(bits).collect::<Vec<_>>()
    );
}

/// The sharded engine accounts for every packet under faults, and without
/// them equals one scorer. Three shards score an interleaved held-out
/// stream that spans less than `idle_timeout`, so no shard's own clock
/// expires a flow. Under `DropNewest`, one injected panic and a forced
/// 16-arrival ring-full burst leave `pushed == scored + dropped +
/// quarantined` on every shard, the whole stream pushed, one packet
/// quarantined and the burst shed. Under `Block` with no faults, the
/// verdicts in arrival order are bitwise a single `StreamScorer`'s.
#[test]
fn sharded_scoring_accounts_for_every_packet_and_matches_one_scorer() {
    clap_repro::clap_core::shard::fault::silence_injected_panics();
    let mut model = ClapConfig::ci();
    model.ae.epochs = 8; // the scores must be equal, not good
    let (clap, _) = Clap::train(&traffic_gen::dataset(0xe2e, 20), &model);
    let held_out = traffic_gen::dataset(0x5a4d, 12);
    let mut stream: Vec<&Packet> = held_out.iter().flat_map(|c| &c.packets).collect();
    stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    let stream_cfg = StreamConfig::default();
    let span = stream.last().unwrap().timestamp - stream[0].timestamp;
    assert!(span < stream_cfg.idle_timeout, "the stream spans {span} s");
    let sharded = |overload, faults| {
        let config = ShardConfig {
            shards: 3,
            // Rings that hold the whole stream never fill on their own,
            // so only the plan's burst sheds.
            queue_capacity: stream.len(),
            stream: stream_cfg.clone(),
            overload,
            faults,
            ..ShardConfig::default()
        };
        clap.sharded_scorer_with(config)
            .try_score_stream(stream.iter().copied())
            .expect("recoverable faults must not fail the run")
    };

    let n = stream.len() as u64;
    let burst = n / 2..n / 2 + 16;
    let faults = FaultPlan::none()
        .with(Fault::PanicAt { arrival: n / 4 })
        .with(Fault::FullBurst {
            from: burst.start,
            until: burst.end,
        });
    let faulted = sharded(OverloadPolicy::DropNewest, faults);
    ShardHealth::check_accounting(&faulted.stats).unwrap();
    let health = ShardHealth::of(&faulted.stats);
    assert_eq!(health.pushed, n, "every packet dispatched");
    assert_eq!(health.quarantined, 1);
    assert_eq!(faulted.quarantined.len(), 1);
    assert_eq!(faulted.quarantined[0].arrival, n / 4);
    assert_eq!(health.dropped, burst.end - burst.start, "the burst is shed");

    let clean = sharded(OverloadPolicy::Block, FaultPlan::none());
    let mut single = clap.stream_scorer_with(stream_cfg.clone());
    for p in &stream {
        single.push(p);
    }
    let mut reference = single.finish();
    reference.sort_by_key(|f| f.arrival);
    assert!(
        reference.len() >= held_out.len(),
        "a verdict per connection"
    );
    let bits = |f: &ClosedFlow| {
        let errors: Vec<u32> = f.scored.window_errors.iter().map(|e| e.to_bits()).collect();
        (
            f.key,
            f.packets,
            f.reason,
            f.arrival,
            errors,
            f.scored.score.to_bits(),
        )
    };
    assert_eq!(
        clean
            .verdicts
            .iter()
            .map(|v| bits(&v.flow))
            .collect::<Vec<_>>(),
        reference.iter().map(bits).collect::<Vec<_>>()
    );
}

/// FNV-1a over the bits of every trained GRU and autoencoder weight and
/// bias, then of the autoencoder's per-epoch losses.
fn trained_bits_hash(clap: &Clap, ae_losses: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |values: &[f32]| {
        for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    // The cell's gate-stacked tensors, walked Wz, Uz, Wr, Ur, Wn, Un, then
    // bz, br, bn.
    let cell = &clap.rnn.cell;
    let (w_gate, u_gate) = (cell.w.data.len() / 3, cell.u.data.len() / 3);
    for gate in 0..3 {
        eat(&cell.w.data[gate * w_gate..(gate + 1) * w_gate]);
        eat(&cell.u.data[gate * u_gate..(gate + 1) * u_gate]);
    }
    eat(&cell.b);
    eat(&clap.rnn.wo.data);
    eat(&clap.rnn.bo);
    for layer in clap.ae.layers() {
        eat(&layer.w.data);
        eat(&layer.b);
    }
    eat(ae_losses);
    hash
}

/// Training is a pure function of its input on each kernel tier: the
/// benchmark's own training set (`benchmark/` trains `ClapConfig::ci()` on
/// `dataset(seed ^ 0x7ea1, 60)` at seed `0xc1a9`) yields these weight bits
/// and loss curve, on one training lane and on as many as the machine has.
/// A change to a training kernel that moves one bit on the tier it runs,
/// or that lets the lane count show, fails here. The avx512 and avx512vnni
/// sets share their f32 kernels, so they share a constant.
#[test]
fn training_reproduces_the_pinned_weight_bits() {
    let benign = traffic_gen::dataset(0xc1a9 ^ 0x7ea1, 60);
    let train = || {
        let (clap, summary) = Clap::train(&benign, &ClapConfig::ci());
        trained_bits_hash(&clap, &summary.ae_losses)
    };
    let tier = KernelSet::active().name;
    let want = match tier {
        "scalar" => 0x0e99_4ca9_d49c_3580,
        "avx2" => 0x9e52_d5c1_2e84_8a53,
        _ => 0xeed9_e0b3_c533_0711,
    };
    let one_lane = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let got = one_lane.install(train);
    assert_eq!(
        got, want,
        "{tier}, 1 lane: trained weights hash {got:#018x}"
    );
    let (got, lanes) = (train(), rayon::current_num_threads());
    assert_eq!(
        got, want,
        "{tier}, {lanes} lanes: trained weights hash {got:#018x}"
    );
}

#[test]
fn every_strategy_produces_scoreable_traces() {
    let (clap, held_out, _) = trained();
    let subset = &held_out[..4];
    let mut scorer = clap.scorer();
    for strategy in registry() {
        let attacked = dpi_attacks::build_adversarial_set(strategy, subset, 11);
        for r in &attacked {
            let s = scorer.score_connection(&r.connection);
            assert!(s.score.is_finite() && s.score >= 0.0, "{}", strategy.id);
            assert!(s.peak_packet < r.connection.len(), "{}", strategy.id);
        }
    }
}

#[test]
fn sources_cover_the_paper_corpus() {
    // 73 paper strategies plus the Extended protocol-diversity families.
    assert_eq!(
        registry().iter().filter(|s| s.source.in_paper()).count(),
        73
    );
    for (source, count) in [
        (AttackSource::SymTcp, 30),
        (AttackSource::Liberate, 23),
        (AttackSource::Geneva, 20),
        (AttackSource::Extended, 3),
    ] {
        assert_eq!(
            registry().iter().filter(|s| s.source == source).count(),
            count,
            "{source:?}"
        );
    }
}
