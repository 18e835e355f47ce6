//! Int8-vs-f32 accuracy parity on the checked-in capture.
//!
//! The quantization proptests bound score drift statistically; this suite
//! pins the deployment-facing claim on a fixed artifact: replaying
//! `tests/data/shard_tiny.pcap` (four benign connections plus one
//! adversarial strategy) through the streaming engine at both precisions
//! must produce **identical verdict tables at the default threshold** —
//! a verdict-flip rate of exactly zero — and int8 scores within the
//! calibrated drift bound of f32. Everything here is deterministic (fixed
//! model seed, fixed capture, exact int8 kernels), so a failure means the
//! quantization scheme changed behavior, not that a die rolled badly.

use clap_core::{Clap, ClapConfig, ClosedFlow, QuantMode, StreamConfig};
use net_packet::pcap::read_pcap;
use net_packet::Packet;
use std::sync::OnceLock;

/// Maximum relative int8-vs-f32 score drift tolerated on the capture.
/// Deliberately tighter than the 0.05 proptest bound in
/// `clap-core/tests/proptests.rs`: that one must absorb randomized
/// corrupted traffic across CI kernel-ISA legs, while this fixed capture
/// measures deterministically — on the exact `[min, max]` activation
/// grid the worst flow drifts 0.74% (avx512vnni; 0.46% avx2, 0.40%
/// scalar), so 2% pins the calibration with real margin.
const INT8_REL_DRIFT: f32 = 0.02;

fn pcap_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("shard_tiny.pcap")
}

/// One trained model shared across tests (training dominates runtime).
/// Same seeds as the sharded_replay suite, so the two pin one artifact.
fn model() -> &'static Clap {
    static MODEL: OnceLock<Clap> = OnceLock::new();
    MODEL.get_or_init(|| {
        let benign = traffic_gen::dataset(87, 20);
        let mut cfg = ClapConfig::ci();
        cfg.ae.epochs = 8;
        Clap::train(&benign, &cfg).0
    })
}

fn load_capture() -> Vec<Packet> {
    let bytes = std::fs::read(pcap_path()).expect(
        "tests/data/shard_tiny.pcap missing — regenerate with \
         `cargo test -p bench --test sharded_replay -- --ignored regenerate`",
    );
    read_pcap(&bytes[..]).expect("checked-in capture parses")
}

/// The deployment threshold recipe — exactly `Clap::threshold_from_benign`,
/// pinned to the f32 engine — on held-out benign traffic. Quantile 0.90:
/// this test's deliberately tiny ci-preset model separates the capture's
/// adversarial flow only marginally, and at 0.95 the threshold lands
/// within float-noise of that flow's score — a boundary where *any* two
/// engines (even two f32 ISAs) can disagree. The flip-rate claim is about
/// thresholds with real margin, which 0.90 provides here.
fn default_threshold(clap: &Clap) -> f32 {
    let benign = traffic_gen::dataset(0x7e57_ca97, 24);
    clap.threshold_from_benign_with(&benign, 0.90, QuantMode::Off)
}

/// Streams the capture at the given precision and returns the finalized
/// flows (default teardown policy — the `exp_stream_pcap` replay path).
fn replay(clap: &Clap, packets: &[Packet], quant: QuantMode) -> Vec<ClosedFlow> {
    let mut scorer = clap.stream_scorer_with(StreamConfig {
        quant,
        ..StreamConfig::default()
    });
    for p in packets {
        scorer.push(p);
    }
    let mut closed = scorer.drain_closed();
    closed.extend(scorer.finish());
    closed
}

/// Renders the boolean verdict table at a threshold: one row per flow
/// (sorted by identity so the rendering is order-insensitive), with the
/// flagged/clear verdict but NOT the raw score — scores legitimately
/// differ between precisions; verdicts must not.
fn verdict_flag_table(closed: &[ClosedFlow], threshold: f32) -> String {
    let mut rows: Vec<String> = closed
        .iter()
        .map(|c| {
            format!(
                "{} -> {} [{} pkts] {}",
                c.key.client,
                c.key.server,
                c.packets,
                if c.scored.score > threshold {
                    "FLAGGED"
                } else {
                    "clear"
                }
            )
        })
        .collect();
    rows.sort();
    rows.join("\n")
}

/// The headline parity claim: zero verdict flips at the default threshold
/// on the checked-in capture, and per-flow score drift within the bound.
#[test]
fn int8_verdict_table_matches_f32_on_checked_in_pcap() {
    let clap = model();
    let packets = load_capture();
    assert!(!packets.is_empty());
    let threshold = default_threshold(clap);

    let f32_flows = replay(clap, &packets, QuantMode::Off);
    let int8_flows = replay(clap, &packets, QuantMode::Int8);
    assert_eq!(f32_flows.len(), int8_flows.len(), "same flow set");

    let f32_table = verdict_flag_table(&f32_flows, threshold);
    let int8_table = verdict_flag_table(&int8_flows, threshold);
    assert_eq!(
        f32_table, int8_table,
        "int8 verdicts flipped at the default threshold"
    );
    // The table must have teeth: the capture contains one adversarial
    // connection, so at least one flow is flagged and at least one clear.
    assert!(
        f32_table.contains("FLAGGED"),
        "no flow flagged:\n{f32_table}"
    );
    assert!(
        f32_table.contains("clear"),
        "every flow flagged:\n{f32_table}"
    );

    // Pair flows by identity+size and bound the per-flow score drift.
    for f in &f32_flows {
        let q = int8_flows
            .iter()
            .find(|c| c.key == f.key && c.packets == f.packets)
            .expect("int8 replay produced the same flows");
        let rel = (q.scored.score - f.scored.score).abs() / f.scored.score.abs().max(1e-3);
        assert!(
            rel <= INT8_REL_DRIFT,
            "flow {} drifted {:.2}%: f32 {} vs int8 {}",
            f.key,
            rel * 100.0,
            f.scored.score,
            q.scored.score
        );
    }
}

/// Int8 replay output is deterministic: two runs render byte-identical
/// full verdict tables (scores included), precision drift or not.
#[test]
fn int8_pcap_replay_is_deterministic() {
    let clap = model();
    let packets = load_capture();
    let a = bench::verdict_table(&replay(clap, &packets, QuantMode::Int8), usize::MAX);
    let b = bench::verdict_table(&replay(clap, &packets, QuantMode::Int8), usize::MAX);
    assert_eq!(a, b, "two int8 replays must render identical bytes");
}
