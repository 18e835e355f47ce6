//! Property-based tests for CLAP's feature extraction, metrics and
//! scoring invariants.

use clap_core::{
    auc_roc, equal_error_rate, extract_connection, roc_curve, score_errors, Clap, ClapConfig,
    EvictionMode, QuantMode, RangeModel, ResidentMode, ShardConfig, StreamConfig,
};
use net_packet::{Connection, TcpFlags};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained detector shared across property cases (training dominates
/// runtime; per-case work is scoring only).
fn model() -> &'static Clap {
    static MODEL: OnceLock<Clap> = OnceLock::new();
    MODEL.get_or_init(|| {
        let benign = traffic_gen::dataset(77, 20);
        let mut cfg = ClapConfig::ci();
        cfg.ae.epochs = 8;
        Clap::train(&benign, &cfg).0
    })
}

/// Maximum relative int8-vs-f32 score drift the calibration harness
/// tolerates. Every activation row quantizes over its exact `[min, max]`;
/// over 300 cases (150 seeds, benign and corrupted) the worst connection
/// on this model drifts 1.1% at each of the avx512vnni, avx2 and scalar
/// tiers. The 5% bound keeps margin for the slightly different models
/// each CI kernel-ISA leg trains, without letting a *different verdict
/// function* masquerade as quantization noise. This model's benign error
/// is high, so a relative bound here is weak against a coarser grid;
/// `int8_tracks_f32_on_representative_models` covers that.
const INT8_REL_DRIFT: f32 = 0.05;

/// A detection threshold for flip-rate checks, derived once from the f32
/// engine's benign score distribution — the deployment recipe itself
/// (`Clap::threshold_from_benign` at the 95th percentile).
fn f32_threshold() -> f32 {
    static THRESHOLD: OnceLock<f32> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        let benign = traffic_gen::dataset(0x7e57_7e57, 24);
        model().threshold_from_benign_with(&benign, 0.95, QuantMode::Off)
    })
}

/// Engine precision, drawn per case by the equivalence properties below:
/// each must hold in every engine mode, not only in the one
/// `StreamConfig::default()` names.
fn engine_modes() -> impl Strategy<Value = QuantMode> {
    prop_oneof![Just(QuantMode::Off), Just(QuantMode::Int8)]
}

proptest! {
    /// Feature extraction is total and well-shaped on arbitrary generated
    /// traffic, and every base feature stays within sane bounds.
    #[test]
    fn features_are_bounded(seed in 0u64..500) {
        let conns = traffic_gen::dataset(seed, 1);
        let fvs = extract_connection(&conns[0]);
        prop_assert_eq!(fvs.len(), conns[0].len());
        for fv in &fvs {
            prop_assert_eq!(fv.base.len(), clap_core::NUM_BASE);
            prop_assert_eq!(fv.raw.len(), clap_core::NUM_RAW);
            for (i, &v) in fv.base.iter().enumerate() {
                prop_assert!(v.is_finite(), "base[{i}] not finite");
                prop_assert!((-0.01..=1.01).contains(&v), "base[{i}] = {v} out of [0,1]");
            }
            for (i, &v) in fv.raw.iter().enumerate() {
                prop_assert!(v.is_finite(), "raw[{i}] not finite");
            }
        }
    }

    /// Benign traffic fits its own fitted ranges: no out-of-range flags.
    #[test]
    fn fitted_ranges_cover_training_data(seed in 0u64..300) {
        let conns = traffic_gen::dataset(seed, 3);
        let fvs: Vec<_> = conns.iter().flat_map(extract_connection).collect();
        let rm = RangeModel::fit(&fvs);
        for fv in &fvs {
            let row = rm.packet_features(fv);
            // Amplification slots #33..#50 (indices 32..50) must all be 0.
            for (i, &v) in row[32..50].iter().enumerate() {
                prop_assert_eq!(v, 0.0, "training data flagged out-of-range at slot {}", i);
            }
        }
    }

    /// AUC is symmetric under swapping populations: AUC(a,b) = 1 - AUC(b,a).
    #[test]
    fn auc_antisymmetry(
        a in prop::collection::vec(0.0f32..1.0, 1..30),
        b in prop::collection::vec(0.0f32..1.0, 1..30),
    ) {
        let x = auc_roc(&a, &b);
        let y = auc_roc(&b, &a);
        prop_assert!((x + y - 1.0).abs() < 1e-5, "{x} + {y} != 1");
    }

    /// AUC is invariant under any strictly monotone transform of scores.
    #[test]
    fn auc_monotone_invariance(
        a in prop::collection::vec(0.0f32..1.0, 1..20),
        b in prop::collection::vec(0.0f32..1.0, 1..20),
    ) {
        let x = auc_roc(&a, &b);
        let ta: Vec<f32> = a.iter().map(|v| v * 3.0 + 1.0).collect();
        let tb: Vec<f32> = b.iter().map(|v| v * 3.0 + 1.0).collect();
        prop_assert!((auc_roc(&ta, &tb) - x).abs() < 1e-6);
    }

    /// EER is always in [0, 1] and roughly complements AUC direction:
    /// perfect separation gives EER ~0, inverted separation gives high EER.
    #[test]
    fn eer_bounds(
        a in prop::collection::vec(0.0f32..1.0, 2..30),
        b in prop::collection::vec(0.0f32..1.0, 2..30),
    ) {
        let e = equal_error_rate(&a, &b);
        prop_assert!((0.0..=1.0).contains(&e));
    }

    /// ROC curves always span (0,0) to (1,1) and are monotone.
    #[test]
    fn roc_curve_monotone(
        a in prop::collection::vec(0.0f32..1.0, 1..25),
        b in prop::collection::vec(0.0f32..1.0, 1..25),
    ) {
        let curve = roc_curve(&a, &b);
        prop_assert_eq!(curve[0].tpr, 1.0);
        prop_assert_eq!(curve[0].fpr, 1.0);
        let last = curve.last().unwrap();
        prop_assert_eq!(last.tpr, 0.0);
        prop_assert_eq!(last.fpr, 0.0);
        for w in curve.windows(2) {
            prop_assert!(w[1].tpr <= w[0].tpr + 1e-6);
            prop_assert!(w[1].fpr <= w[0].fpr + 1e-6);
        }
    }

    /// The adversarial score never exceeds the peak error and never falls
    /// below the minimum error (it is a mean over a window containing the
    /// peak).
    #[test]
    fn score_bounded_by_errors(errs in prop::collection::vec(0.0f32..10.0, 1..50)) {
        let (peak, score) = score_errors(&errs, 5);
        let max = errs.iter().cloned().fold(f32::MIN, f32::max);
        let min = errs.iter().cloned().fold(f32::MAX, f32::min);
        prop_assert!(errs[peak] == max);
        prop_assert!(score <= max + 1e-6);
        prop_assert!(score >= min - 1e-6);
    }

    /// The streaming engine's headline guarantee: feeding a connection's
    /// packets one at a time — with flows interleaved through one shared
    /// scorer — yields **bitwise** the scores of the offline batch path, on
    /// arbitrary generated traffic with and without injected adversarial
    /// packets (the paper's Bad-Checksum-RST), at either engine precision:
    /// every engine scores a row through one kernel call that never sees
    /// its neighbours, so how flows interleave cannot move a bit.
    #[test]
    fn streaming_scores_match_batch(
        seed in 0u64..10_000,
        corrupt in any::<bool>(),
        quant in engine_modes(),
    ) {
        let clap = model();
        let mut conns = traffic_gen::dataset(seed ^ 0x57ab, 2);
        if corrupt {
            for conn in &mut conns {
                if let Some(idx) = conn.first_index_after_handshake() {
                    let at = idx.min(conn.len() - 1);
                    let mut rst = conn.packets[at].clone();
                    rst.tcp_mut().flags = TcpFlags::RST;
                    rst.payload.clear();
                    rst.fill_checksums();
                    rst.tcp_mut().checksum ^= 0x0bad;
                    conn.packets.insert(at, rst);
                }
            }
        }

        let mut scorer = clap.stream_scorer_with(StreamConfig {
            // Score past teardown, like batch scoring of a full capture.
            teardown_on_close: false,
            quant,
            ..StreamConfig::default()
        });
        let longest = conns.iter().map(Connection::len).max().unwrap();
        for i in 0..longest {
            for conn in &conns {
                if let Some(p) = conn.packets.get(i) {
                    scorer.push(p);
                }
            }
        }
        let closed = scorer.finish();
        prop_assert_eq!(closed.len(), conns.len(), "one flow per connection");
        let mut batch_scorer = clap.scorer_with(quant);
        for conn in &conns {
            let flow = closed
                .iter()
                .find(|c| c.key == conn.key)
                .expect("flow key matches connection key");
            let batch = batch_scorer.score_connection(conn);
            prop_assert_eq!(
                flow.scored.score.to_bits(), batch.score.to_bits(),
                "score drift: stream {} vs batch {}", flow.scored.score, batch.score
            );
            prop_assert_eq!(flow.scored.peak_window, batch.peak_window);
            prop_assert_eq!(flow.scored.peak_packet, batch.peak_packet);
            prop_assert_eq!(error_bits(&flow.scored.window_errors), error_bits(&batch.window_errors));
        }
    }

    /// Orientation recovery: a capture that opens with up to 3 mid-flow
    /// (server-sent) packets before the client's pure SYN must stream to
    /// exactly the scores of the offline reassembler, which re-orients the
    /// connection on that late SYN. This pins the streaming orient buffer
    /// against `net_packet::assemble_connections` + batch scoring.
    #[test]
    fn late_syn_streaming_matches_reassembled_batch(
        seed in 0u64..5_000,
        lead in 1usize..4,
        quant in engine_modes(),
    ) {
        let clap = model();
        let conn = &traffic_gen::dataset(seed ^ 0x0a1e, 1)[0];
        // Move up to `lead` server→client packets in front of the SYN,
        // simulating a capture that starts mid-connection.
        let s2c: Vec<usize> = (0..conn.len())
            .filter(|&i| i > 0 && conn.direction(i) == net_packet::Direction::ServerToClient)
            .take(lead)
            .collect();
        if s2c.is_empty() {
            // Degenerate connection with no server traffic: nothing to test.
            return;
        }
        let mut stream_pkts: Vec<_> = s2c.iter().map(|&i| conn.packets[i].clone()).collect();
        stream_pkts.extend(
            conn.packets
                .iter()
                .enumerate()
                .filter(|(i, _)| !s2c.contains(i))
                .map(|(_, p)| p.clone()),
        );

        let offline = net_packet::assemble_connections(&stream_pkts);
        prop_assert_eq!(offline.len(), 1);
        prop_assert_eq!(
            offline[0].key.client, conn.key.client,
            "offline reassembly re-orients on the late pure SYN"
        );
        let batch = clap.scorer_with(quant).score_connection(&offline[0]);

        let mut scorer = clap.stream_scorer_with(StreamConfig {
            teardown_on_close: false,
            quant,
            ..StreamConfig::default()
        });
        for p in &stream_pkts {
            scorer.push(p);
        }
        let closed = scorer.finish();
        prop_assert_eq!(closed.len(), 1);
        prop_assert_eq!(closed[0].key, offline[0].key, "streaming re-orients too");
        prop_assert_eq!(closed[0].packets, stream_pkts.len());
        prop_assert_eq!(
            closed[0].scored.score.to_bits(), batch.score.to_bits(),
            "score drift: stream {} vs batch {}", closed[0].scored.score, batch.score
        );
        prop_assert_eq!(closed[0].scored.peak_window, batch.peak_window);
        prop_assert_eq!(
            error_bits(&closed[0].scored.window_errors),
            error_bits(&batch.window_errors)
        );
    }

    /// The int8 quantization calibration harness, end to end: over
    /// randomized corrupted+benign traffic, the int8 engine's scores stay
    /// within the relative drift bound of the f32 engine's — through both
    /// the batch and the streaming entry points (which must also agree
    /// with each other exactly, since int8 streaming == int8 batch is
    /// bitwise) — and any verdict flip at the deployed f32 threshold is
    /// confined to scores already inside the drift band of the threshold.
    #[test]
    fn int8_scores_and_verdicts_track_f32(seed in 0u64..10_000, corrupt in any::<bool>()) {
        let clap = model();
        let thr = f32_threshold();
        let mut conns = traffic_gen::dataset(seed ^ 0x1178, 2);
        if corrupt {
            for conn in &mut conns {
                if let Some(idx) = conn.first_index_after_handshake() {
                    let at = idx.min(conn.len() - 1);
                    let mut rst = conn.packets[at].clone();
                    rst.tcp_mut().flags = TcpFlags::RST;
                    rst.payload.clear();
                    rst.fill_checksums();
                    rst.tcp_mut().checksum ^= 0x0bad;
                    conn.packets.insert(at, rst);
                }
            }
        }

        let f32_scores = clap.score_connections_with(&conns, QuantMode::Off);
        let int8_scores = clap.score_connections_with(&conns, QuantMode::Int8);

        // Streaming at int8: identical to int8 batch (bitwise engine
        // equivalence carries through the whole scoring pipeline ≤1e-6 —
        // the same budget the f32 streaming==batch property uses).
        let mut scorer = clap.stream_scorer_with(StreamConfig {
            teardown_on_close: false,
            quant: QuantMode::Int8,
            ..StreamConfig::default()
        });
        for conn in &conns {
            for p in &conn.packets {
                scorer.push(p);
            }
        }
        let closed = scorer.finish();

        for (conn, (f, q)) in conns.iter().zip(f32_scores.iter().zip(&int8_scores)) {
            let rel = (q.score - f.score).abs() / f.score.abs().max(1e-3);
            prop_assert!(
                rel <= INT8_REL_DRIFT,
                "int8 drifted {:.2}%: {} vs {}", rel * 100.0, q.score, f.score
            );
            prop_assert_eq!(q.window_errors.len(), f.window_errors.len());
            // Verdict flips at the deployed threshold can only happen
            // within the drift band around it — a flip on a clearly
            // benign or clearly adversarial score would mean int8 is a
            // different detector, not a noisier one.
            let band = INT8_REL_DRIFT * f.score.abs().max(1e-3);
            prop_assert!(
                (q.score > thr) == (f.score > thr) || (f.score - thr).abs() <= band,
                "verdict flipped outside the drift band: f32 {} int8 {} thr {}",
                f.score, q.score, thr
            );
            let flow = closed
                .iter()
                .find(|c| c.key == conn.key)
                .expect("flow key matches connection key");
            prop_assert!(
                (flow.scored.score - q.score).abs() < 1e-6,
                "int8 streaming diverged from int8 batch: {} vs {}",
                flow.scored.score, q.score
            );
        }
    }

    /// Raising any single error never lowers the adversarial score's peak.
    #[test]
    fn score_monotone_in_spikes(
        errs in prop::collection::vec(0.0f32..1.0, 3..30),
        which in 0usize..30,
        boost in 1.0f32..10.0,
    ) {
        let mut spiked = errs.clone();
        let i = which % errs.len();
        spiked[i] += boost;
        let (_, s0) = score_errors(&errs, 5);
        let (p1, s1) = score_errors(&spiked, 5);
        prop_assert_eq!(p1, i, "spike must relocate the peak");
        // The spiked score includes the boosted element, so it cannot be
        // lower than the average the boost replaced by more than the old
        // score.
        prop_assert!(s1 >= s0 - 1.0, "score collapsed: {s0} -> {s1}");
    }
}

// One sharded case runs the corpus through five engines (unsharded plus
// four shard counts), so the case budget is kept deliberately small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded front end's headline guarantee: for random interleaved
    /// corrupted+benign traffic, `ShardedStreamScorer` with N ∈ {1, 2, 4,
    /// 7} shards produces the identical per-flow verdict set (scores
    /// bitwise, same close reasons, same localization) as the
    /// single-threaded `StreamScorer` — regardless of queue capacity,
    /// sweep cadence and flush timing, with teardown both on and off.
    /// (Idle-timeout evictions never fire here: generated captures are
    /// far shorter than the 300 s idle deadline. That is the documented
    /// boundary of shard-count equality — per-shard clocks may split
    /// longer-quiet flows differently — and the run-to-run determinism
    /// that *does* hold under idle sweeps is pinned separately by
    /// `shard::tests::shard_flow_restart_keeps_deterministic_arrivals`
    /// and `shard_idle_sweeps_are_deterministic_per_shard_count`.)
    #[test]
    fn sharded_verdicts_match_unsharded(
        seed in 0u64..10_000,
        queue_capacity in 1usize..24,
        sweep_interval in prop_oneof![Just(1usize), Just(7usize), Just(4096usize)],
        teardown in any::<bool>(),
        corrupt in any::<bool>(),
        quant in engine_modes(),
    ) {
        let clap = model();
        let mut conns = traffic_gen::dataset(seed ^ 0x5a4d, 6);
        if corrupt {
            // Inject a bad-checksum RST (the paper's flagship evasion)
            // into every other flow, so the stream mixes corrupted and
            // benign traffic through the same tables.
            for conn in conns.iter_mut().step_by(2) {
                if let Some(idx) = conn.first_index_after_handshake() {
                    let at = idx.min(conn.len() - 1);
                    let mut rst = conn.packets[at].clone();
                    rst.tcp_mut().flags = TcpFlags::RST;
                    rst.payload.clear();
                    rst.fill_checksums();
                    rst.tcp_mut().checksum ^= 0x0bad;
                    conn.packets.insert(at, rst);
                }
            }
        }
        let mut stream: Vec<&net_packet::Packet> =
            conns.iter().flat_map(|c| c.packets.iter()).collect();
        stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));

        let stream_cfg = StreamConfig {
            teardown_on_close: teardown,
            sweep_interval,
            quant,
            ..StreamConfig::default()
        };

        // Unsharded reference verdict set.
        let mut plain = clap.stream_scorer_with(stream_cfg.clone());
        for p in &stream {
            plain.push(p);
        }
        let mut reference = plain.drain_closed();
        reference.extend(plain.finish());
        let expect: Vec<_> = verdict_set(reference.iter());

        for shards in [1usize, 2, 4, 7] {
            let run = clap
                .sharded_scorer_with(ShardConfig {
                    shards,
                    queue_capacity,
                    stream: stream_cfg.clone(),
                    ..ShardConfig::default()
                })
                .score_stream(stream.iter().copied());
            let got: Vec<_> = verdict_set(run.verdicts.iter().map(|v| &v.flow));
            prop_assert_eq!(got.len(), expect.len(), "flow count at {} shards", shards);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert_eq!(g.0, e.0, "flow identity at {} shards", shards);
                prop_assert_eq!(g.1, e.1, "packet count at {} shards", shards);
                prop_assert_eq!(g.2, e.2, "close reason at {} shards", shards);
                prop_assert_eq!(g.3, e.3, "peak packet at {} shards", shards);
                prop_assert_eq!(
                    g.4.to_bits(), e.4.to_bits(),
                    "score drift at {} shards: {} vs {}", shards, g.4, e.4
                );
            }
        }
    }

    /// The symmetric shard hash keeps every packet of a flow — both
    /// directions, including pre-SYN orient-buffer reorderings where
    /// server packets precede the client's SYN — on one shard.
    #[test]
    fn all_packets_of_a_flow_share_a_shard(
        seed in 0u64..10_000,
        lead in 0usize..4,
        shards in prop_oneof![Just(2usize), Just(4usize), Just(7usize), Just(13usize)],
    ) {
        let conn = &traffic_gen::dataset(seed ^ 0x15a6, 1)[0];
        // Reorder like a mid-capture start: up to `lead` server→client
        // packets ahead of the handshake (the PR 3 orient-buffer shape).
        let s2c: Vec<usize> = (0..conn.len())
            .filter(|&i| i > 0 && conn.direction(i) == net_packet::Direction::ServerToClient)
            .take(lead)
            .collect();
        let mut stream: Vec<&net_packet::Packet> =
            s2c.iter().map(|&i| &conn.packets[i]).collect();
        stream.extend(
            conn.packets
                .iter()
                .enumerate()
                .filter(|(i, _)| !s2c.contains(i))
                .map(|(_, p)| p),
        );

        let home = net_packet::CanonicalKey::of(stream[0]).shard_of(shards);
        for p in &stream {
            prop_assert_eq!(
                net_packet::CanonicalKey::of(p).shard_of(shards),
                home,
                "a packet left its flow's shard"
            );
        }
        prop_assert_eq!(
            net_packet::CanonicalKey::of_key(&conn.key).shard_of(shards),
            home,
            "the oriented flow key agrees with its packets"
        );
    }
}

/// The median per-connection relative int8-vs-f32 score drift a
/// representative model may show on held-out benign traffic. The harness
/// model above trains on 20 connections, and its benign error is high
/// enough that a grid change can hide under the 5% bound. A model trained
/// like the experiment binaries' (`ClapConfig::quick()` on 250
/// connections) reconstructs benign windows closely, so its scores are
/// small and any activation grid coarser than the row's `[min, max]`
/// shows up as drift. On the exact grid the two seeds below read
/// 3.3–5.0% at each of the avx512vnni, avx2 and scalar tiers.
const REPRESENTATIVE_MEDIAN_DRIFT: f32 = 0.10;

/// The int8 engine scores benign traffic like the f32 engine on models
/// trained at the experiments' scale, not only on the harness model.
#[test]
fn int8_tracks_f32_on_representative_models() {
    for seed in [0u64, 1] {
        let mut cfg = ClapConfig::quick();
        cfg.ae.epochs = 40;
        let clap = Clap::train(&traffic_gen::dataset(seed, 250), &cfg).0;
        let benign = traffic_gen::dataset(seed ^ 0x7e57, 80);
        let f32_scores = clap.score_connections_with(&benign, QuantMode::Off);
        let int8_scores = clap.score_connections_with(&benign, QuantMode::Int8);
        let mut drift: Vec<f32> = f32_scores
            .iter()
            .zip(&int8_scores)
            .map(|(f, q)| (q.score - f.score).abs() / f.score.abs().max(1e-3))
            .collect();
        drift.sort_by(f32::total_cmp);
        let median = drift[drift.len() / 2];
        assert!(
            median <= REPRESENTATIVE_MEDIAN_DRIFT,
            "seed {seed}: median benign int8 drift {:.1}%",
            median * 100.0
        );
    }
}

/// Maximum relative drift the int8 *resident* form (quantized per-flow
/// hidden state + profile ring, requantized on every store) may add over
/// the f32 resident form. Repeated dequant/requant cycles do not
/// compound, because each store re-derives the codes from full-precision
/// values: over 300 cases (150 seeds, benign and corrupted) the worst
/// flow drifts 0.3% at each kernel tier. The bound matches the int8
/// *weights* budget: resident quantization must behave like quantization
/// noise, not like a different detector.
const RESIDENT_INT8_REL_DRIFT: f32 = 0.05;

// The eviction-equivalence cases run the corpus through two full engines
// per case; budget like the sharded suite.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The expiry queue's headline guarantee (`EvictionMode::Wheel`, by
    /// its historical name): for random interleaved traffic re-timed with
    /// randomized idle gaps — under randomized sweep cadences and teardown
    /// on/off — it finalizes the *identical* flow set as the O(n)-scan
    /// reference (`EvictionMode::Sweep`): same identities, close reasons,
    /// localization, scores within 1e-6, and identical lifetime counters.
    /// Both modes fire at sweep boundaries through the same exact
    /// `last_seen < clock − idle_timeout` predicate; the queue only
    /// narrows *which flows get checked*, so any divergence is a queue bug
    /// (a flow out of `last_seen` order).
    #[test]
    fn wheel_idle_eviction_matches_sweep(
        seed in 0u64..10_000,
        sweep_interval in prop_oneof![Just(1usize), Just(7usize), Just(64usize)],
        idle_timeout in prop_oneof![Just(2.0f64), Just(8.0)],
        teardown in any::<bool>(),
        gap_seed in 0u64..1_000,
        quant in engine_modes(),
    ) {
        let clap = model();
        let conns = traffic_gen::dataset(seed ^ 0x37ee, 5);
        let mut pkts: Vec<net_packet::Packet> = conns
            .iter()
            .flat_map(|c| c.packets.iter().cloned())
            .collect();
        pkts.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        // Re-time the stream: mostly sub-second spacing, with occasional
        // jumps past the idle timeout so mid-flow evictions (and reopened
        // incarnations of the same tuple) actually happen.
        let mut t = 0.0f64;
        let mut x = gap_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for p in &mut pkts {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += if x % 11 == 0 {
                idle_timeout * 1.5 + (x % 7) as f64
            } else {
                0.05 * ((x % 16) as f64)
            };
            p.timestamp = t;
        }

        let run = |eviction: EvictionMode| {
            let mut s = clap.stream_scorer_with(StreamConfig {
                eviction,
                idle_timeout,
                sweep_interval,
                teardown_on_close: teardown,
                quant,
                ..StreamConfig::default()
            });
            for p in &pkts {
                s.push(p);
            }
            let mut closed = s.drain_closed();
            closed.extend(s.finish());
            (closed, s.stats())
        };
        let (wheel_closed, wheel_stats) = run(EvictionMode::Wheel);
        let (sweep_closed, sweep_stats) = run(EvictionMode::Sweep);

        prop_assert_eq!(wheel_stats, sweep_stats, "lifetime counters diverged");
        let wheel = verdict_set(wheel_closed.iter());
        let sweep = verdict_set(sweep_closed.iter());
        prop_assert_eq!(wheel.len(), sweep.len(), "finalized flow count");
        for (w, s) in wheel.iter().zip(&sweep) {
            prop_assert_eq!(w.0, s.0, "flow identity");
            prop_assert_eq!(w.1, s.1, "packet count");
            prop_assert_eq!(w.2, s.2, "close reason");
            prop_assert_eq!(w.3, s.3, "peak packet");
            prop_assert!(
                (w.4 - s.4).abs() < 1e-6,
                "score drift: wheel {} vs sweep {}", w.4, s.4
            );
        }
    }

    /// The int8 resident form's calibration harness: holding the per-flow
    /// GRU hidden state and profile ring as 7-bit codes (dequantized on
    /// step, requantized on store) stays within the calibrated relative
    /// drift of the f32 resident form on randomized corrupted+benign
    /// traffic, flow for flow — with identical flow sets, close reasons
    /// and window counts. Weights stay f32 in both runs, so every
    /// observed divergence is attributable to the resident codes alone.
    #[test]
    fn resident_int8_drift_is_calibrated(
        seed in 0u64..10_000,
        corrupt in any::<bool>(),
    ) {
        let clap = model();
        let mut conns = traffic_gen::dataset(seed ^ 0x8e51, 3);
        if corrupt {
            for conn in conns.iter_mut().step_by(2) {
                if let Some(idx) = conn.first_index_after_handshake() {
                    let at = idx.min(conn.len() - 1);
                    let mut rst = conn.packets[at].clone();
                    rst.tcp_mut().flags = TcpFlags::RST;
                    rst.payload.clear();
                    rst.fill_checksums();
                    rst.tcp_mut().checksum ^= 0x0bad;
                    conn.packets.insert(at, rst);
                }
            }
        }
        let mut stream: Vec<&net_packet::Packet> =
            conns.iter().flat_map(|c| c.packets.iter()).collect();
        stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));

        let run = |resident: ResidentMode| {
            let mut s = clap.stream_scorer_with(StreamConfig {
                resident,
                teardown_on_close: false,
                ..StreamConfig::default()
            });
            for p in &stream {
                s.push(p);
            }
            let mut closed = s.finish();
            closed.sort_by(|a, b| format!("{}", a.key).cmp(&format!("{}", b.key)));
            closed
        };
        let f32_closed = run(ResidentMode::F32);
        let int8_closed = run(ResidentMode::Int8);

        prop_assert_eq!(f32_closed.len(), int8_closed.len());
        for (f, q) in f32_closed.iter().zip(&int8_closed) {
            prop_assert_eq!(&f.key, &q.key);
            prop_assert_eq!(f.packets, q.packets);
            prop_assert_eq!(f.reason, q.reason);
            prop_assert_eq!(
                f.scored.window_errors.len(),
                q.scored.window_errors.len()
            );
            prop_assert!(q.scored.score.is_finite());
            let rel = (q.scored.score - f.scored.score).abs()
                / f.scored.score.abs().max(1e-3);
            prop_assert!(
                rel <= RESIDENT_INT8_REL_DRIFT,
                "resident int8 drifted {:.2}%: {} vs {}",
                rel * 100.0, q.scored.score, f.scored.score
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `spsc::Ring` close/drain protocol under a real thread race: a
    /// producer pushes `sent` items and calls `close()` immediately —
    /// racing a consumer that is draining concurrently — and the
    /// consumer must still receive exactly the pushed prefix, in order,
    /// with nothing lost to the close and nothing double-delivered.
    #[test]
    fn shard_spsc_close_race_delivers_exactly_once(
        capacity in 1usize..8,
        sent in 0usize..200,
        consumer_delay_spins in 0u32..64,
    ) {
        let ring: clap_core::shard::spsc::Ring<usize> = clap_core::shard::spsc::Ring::new(capacity);
        let seen = std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                // A variable head start skews the race both ways: sometimes
                // the close lands before the first pop, sometimes mid-drain.
                for _ in 0..consumer_delay_spins {
                    std::hint::spin_loop();
                }
                let mut seen = Vec::new();
                let mut backoff = clap_core::shard::spsc::Backoff::new();
                loop {
                    while let Some(v) = ring.try_pop() {
                        seen.push(v);
                        backoff.reset();
                    }
                    if ring.is_closed() {
                        while let Some(v) = ring.try_pop() {
                            seen.push(v);
                        }
                        break;
                    }
                    backoff.snooze();
                }
                seen
            });
            let mut backoff = clap_core::shard::spsc::Backoff::new();
            for v in 0..sent {
                let mut item = v;
                while let Err(back) = ring.try_push(item) {
                    item = back;
                    backoff.snooze();
                }
            }
            ring.close();
            consumer.join().unwrap()
        });
        prop_assert_eq!(
            seen,
            (0..sent).collect::<Vec<_>>(),
            "every pushed item must arrive exactly once, in order"
        );
    }
}

/// Canonicalizes a verdict list into a deterministic, comparable set:
/// sorted by (canonical flow identity, packets), carrying close reason,
/// localization and score.
/// Window errors as bit patterns, for the bitwise stream == batch pins.
fn error_bits(errors: &[f32]) -> Vec<u32> {
    errors.iter().map(|e| e.to_bits()).collect()
}

fn verdict_set<'a>(
    flows: impl Iterator<Item = &'a clap_core::ClosedFlow>,
) -> Vec<(
    net_packet::CanonicalKey,
    usize,
    clap_core::CloseReason,
    usize,
    f32,
)> {
    let mut set: Vec<_> = flows
        .map(|f| {
            (
                net_packet::CanonicalKey::of_key(&f.key),
                f.packets,
                f.reason,
                f.scored.peak_packet,
                f.scored.score,
            )
        })
        .collect();
    // Total order (score included) so repeated incarnations of one tuple
    // pair up deterministically between the two engines.
    set.sort_by(|a, b| {
        format!("{:?}", a.0)
            .cmp(&format!("{:?}", b.0))
            .then(a.1.cmp(&b.1))
            .then(a.4.total_cmp(&b.4))
    });
    set
}
