//! Deterministic sharded pcap-replay regression tests.
//!
//! `tests/data/shard_tiny.pcap` is a tiny synthesized capture (benign
//! generated traffic plus one adversarial strategy, round-tripped through
//! the real pcap writer) checked into the repository so this suite pins
//! the full deployment path: file bytes → pcap reader → RSS-sharded
//! multi-queue scoring → rendered verdict table. The table must be
//! **byte-identical** across repeated runs (thread scheduling must not
//! leak into output) and across shard counts (the sharded engine must
//! equal the single-threaded one, not merely approximate it). So must the
//! end-of-stream flow dump (`--dump-flows`). Every sharded replay also
//! builds its `--telemetry-out` export and checks that the JSON reads
//! back equal.
//!
//! Regenerate the capture with
//! `cargo test -p bench --test sharded_replay -- --ignored regenerate`
//! after an intentional traffic-generator change, and commit the result.

use bench::{TelemetryExport, VerdictRow};
use clap_core::{
    Clap, ClapConfig, Fault, FaultPlan, FlowEntry, OverloadPolicy, QuantMode, ShardConfig,
    ShardSnapshot, ShardedRun, StreamConfig,
};
use net_packet::pcap::{read_pcap, write_pcap, write_pcap_raw};
use net_packet::Packet;
use std::sync::OnceLock;

fn pcap_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("shard_tiny.pcap")
}

fn mixed_pcap_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("mixed_tiny.pcap")
}

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

fn load_capture() -> Vec<Packet> {
    let bytes = std::fs::read(pcap_path()).expect(
        "tests/data/shard_tiny.pcap missing — regenerate with \
         `cargo test -p bench --test sharded_replay -- --ignored regenerate`",
    );
    read_pcap(&bytes[..]).expect("checked-in capture parses")
}

/// A replay's rendered verdict table and its end-of-stream flow dump.
type Replay = (String, Vec<FlowEntry>);

/// The full `--shards N --telemetry-out` replay path of
/// `exp_stream_pcap`: sharded scoring with default stream policy at engine
/// precision `quant`, rendered through the shared deterministic verdict
/// table, with the flows still live at end of stream. The run's export
/// must read back equal, every verdict keeping its score's exact bits, and
/// the parsed snapshot must account for every packet.
fn sharded_table(clap: &Clap, packets: &[Packet], shards: usize, quant: QuantMode) -> Replay {
    let scorer = clap.sharded_scorer_with(ShardConfig {
        shards,
        queue_capacity: 1024,
        stream: StreamConfig {
            quant,
            ..StreamConfig::default()
        },
        dump_flows: true,
        ..ShardConfig::default()
    });
    let run = scorer.score_stream(packets.iter());

    let export = TelemetryExport {
        snapshot: run.stats.clone(),
        verdicts: run
            .verdicts
            .iter()
            .map(|v| VerdictRow::new(v.shard, &v.flow))
            .collect(),
        flows: run.flows.clone(),
    };
    let json = serde_json::to_string(&export).expect("serialize export");
    let back: TelemetryExport = serde_json::from_str(&json).expect("export parses back");
    assert_eq!(back, export, "--shards {shards} export must round-trip");
    for (row, v) in back.verdicts.iter().zip(&run.verdicts) {
        assert_eq!(row.score.to_bits(), v.flow.scored.score.to_bits());
    }
    ShardSnapshot::check_accounting(&back.snapshot).expect("parsed snapshot invariants");
    assert_eq!(
        ShardSnapshot::total(&back.snapshot).scored,
        packets.len() as u64
    );

    let closed: Vec<_> = run.verdicts.into_iter().map(|v| v.flow).collect();
    (bench::verdict_table(&closed, usize::MAX), run.flows)
}

/// The plain single-threaded engine at engine precision `quant`,
/// rendered the same way: the reference the sharded engine is pinned to
/// at every shard count.
fn plain_table(clap: &Clap, packets: &[Packet], quant: QuantMode) -> Replay {
    let mut plain = clap.stream_scorer_with(StreamConfig {
        quant,
        ..StreamConfig::default()
    });
    for p in packets {
        plain.push(p);
    }
    let mut closed = plain.drain_closed();
    let flows = plain.flow_entries();
    closed.extend(plain.finish());
    (bench::verdict_table(&closed, usize::MAX), flows)
}

/// `exp_stream_pcap --shards 4` emits byte-identical verdict tables and
/// equal flow dumps across two runs (scheduling independence) and against
/// `--shards 1` and the plain single-threaded engine (shard-count
/// independence), at f32 and at int8 weights.
#[test]
fn sharded_pcap_replay_is_byte_identical() {
    let clap = model();
    let packets = load_capture();
    assert!(!packets.is_empty());

    for quant in [QuantMode::Off, QuantMode::Int8] {
        let four_a = sharded_table(clap, &packets, 4, quant);
        let four_b = sharded_table(clap, &packets, 4, quant);
        assert_eq!(
            four_a, four_b,
            "two --shards 4 replays must render identical bytes at {quant:?}"
        );
        let one = sharded_table(clap, &packets, 1, quant);
        assert_eq!(four_a, one, "--shards 4 must equal --shards 1 at {quant:?}");
        assert_eq!(
            four_a,
            plain_table(clap, &packets, quant),
            "sharded must equal the plain engine at {quant:?}"
        );
    }
}

/// The `--fault-plan` replay path of `exp_stream_pcap` is as
/// deterministic as the fault-free one, at one shard (the binary's
/// default) and at four: the same seed-derived schedule (plus a
/// supervised panic and forced burst under `drop-newest`) replayed twice
/// over the checked-in capture renders byte-identical verdict tables and
/// identical per-shard stats and quarantine logs.
#[test]
fn fault_plan_replay_is_byte_identical() {
    clap_core::shard::fault::silence_injected_panics();
    let clap = model();
    let packets = load_capture();
    let mid = (packets.len() / 2) as u64;
    let plan = FaultPlan::randomized(0x5eed_ca97, packets.len() as u64)
        .with(Fault::PanicAt { arrival: mid })
        .with(Fault::FullBurst {
            from: mid + 1,
            until: (mid + 9).min(packets.len() as u64),
        });
    for shards in [1, 4] {
        let replay = || {
            let run = clap
                .sharded_scorer_with(ShardConfig {
                    shards,
                    queue_capacity: packets.len().max(1),
                    overload: OverloadPolicy::DropNewest,
                    faults: plan.clone(),
                    ..ShardConfig::default()
                })
                .try_score_stream(packets.iter())
                .expect("recoverable faults must not fail the run");
            ShardSnapshot::check_accounting(&run.stats).expect("accounting invariant");
            let closed: Vec<_> = run.verdicts.iter().map(|v| v.flow.clone()).collect();
            (bench::verdict_table(&closed, usize::MAX), run)
        };
        let (table_a, run_a) = replay();
        let (table_b, run_b) = replay();
        assert_eq!(
            table_a, table_b,
            "--shards {shards}: same fault plan must render identical bytes across runs"
        );
        // Every counter agrees; the stage summaries are timings.
        let counters = |r: &ShardedRun| r.stats.iter().map(|s| s.counters()).collect::<Vec<_>>();
        assert_eq!(
            counters(&run_a),
            counters(&run_b),
            "--shards {shards}: per-shard stats diverged"
        );
        assert_eq!(
            run_a.quarantined, run_b.quarantined,
            "--shards {shards}: quarantine logs diverged"
        );
        assert!(
            run_a.quarantined.iter().any(|q| q.arrival == mid),
            "--shards {shards}: the injected panic must be quarantined"
        );
    }
}

/// The capture itself is pinned: if the traffic generator or pcap writer
/// drift, this fails loudly instead of silently re-baselining the
/// determinism test above.
#[test]
fn shard_tiny_capture_is_stable() {
    let packets = load_capture();
    assert_eq!(packets.len(), synthesize_capture().len());
    let mut buf = Vec::new();
    write_pcap(&mut buf, &synthesize_capture()).expect("serialize");
    let on_disk = std::fs::read(pcap_path()).expect("read checked-in capture");
    assert_eq!(
        buf, on_disk,
        "regenerated capture differs from tests/data/shard_tiny.pcap — \
         if the generator change is intentional, re-run the ignored \
         `regenerate` test and commit the new file"
    );
}

/// Builds the tiny capture deterministically: four benign connections
/// plus one adversarial strategy over one more, interleaved by timestamp.
fn synthesize_capture() -> Vec<Packet> {
    let mut conns = traffic_gen::dataset(0x5eed_ca97, 4);
    let strategy = &dpi_attacks::registry()[0];
    let base = traffic_gen::dataset(0x5eed_ca98, 1);
    let adv = dpi_attacks::build_adversarial_set(strategy, &base, 7);
    conns.extend(adv.into_iter().map(|r| r.connection));
    let mut stream: Vec<Packet> = conns
        .iter()
        .flat_map(|c| c.packets.iter().cloned())
        .collect();
    stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    stream
}

/// Builds the mixed-protocol capture deterministically: eight mixed
/// v4/v6, TCP/UDP connections plus one connection attacked with each
/// Extended protocol-diversity family, serialized to raw wire records
/// with IPv4 datagrams over 600 bytes split into fragments. The pcap
/// reader reassembles those fragments inline on load, so this capture
/// exercises the full v4/v6/UDP/fragment dispatch of the parser in
/// front of the sharded engine.
fn synthesize_mixed_capture() -> Vec<(f64, Vec<u8>)> {
    let mut conns = traffic_gen::mixed_dataset(0x9ca9_5eed, 8);
    let base = traffic_gen::mixed_dataset(0x9ca9_5eee, 6);
    for strat in dpi_attacks::strategies_from(dpi_attacks::AttackSource::Extended) {
        let adv = dpi_attacks::build_adversarial_set(strat, &base, 7);
        conns.extend(adv.into_iter().take(1).map(|r| r.connection));
    }
    traffic_gen::capture_records(&conns, Some(600))
}

fn load_mixed_capture() -> Vec<Packet> {
    let bytes = std::fs::read(mixed_pcap_path()).expect(
        "tests/data/mixed_tiny.pcap missing — regenerate with \
         `cargo test -p bench --test sharded_replay -- --ignored regenerate`",
    );
    read_pcap(&bytes[..]).expect("checked-in mixed capture parses")
}

/// The mixed v4/v6/UDP (and fragmented) capture replays byte-identically
/// across shard counts and against the plain single-threaded engine —
/// the widened `FlowKey` must hash and route every protocol shape
/// deterministically, exactly like the all-v4 capture above. It ends with
/// flows still open, so it also pins the flow dump across shard counts.
#[test]
fn protocol_mixed_pcap_replay_is_byte_identical() {
    let clap = model();
    let packets = load_mixed_capture();
    assert!(!packets.is_empty());
    assert!(
        packets.iter().any(|p| p.ip.version_field() == 6),
        "mixed capture must contain IPv6 packets"
    );
    assert!(
        packets.iter().any(|p| p.is_udp()),
        "mixed capture must contain UDP packets"
    );
    assert!(
        packets.iter().any(|p| p.reassembly.is_some()),
        "mixed capture must contain reassembled fragments"
    );

    let four_a = sharded_table(clap, &packets, 4, QuantMode::Off);
    // Flows still open at the end, whose dump each shard's clock would
    // skew if it held ages rather than capture timestamps.
    assert!(four_a.1.len() > 1, "flows live at end of stream");
    let four_b = sharded_table(clap, &packets, 4, QuantMode::Off);
    assert_eq!(
        four_a, four_b,
        "two --shards 4 mixed replays must render identical bytes"
    );
    let one = sharded_table(clap, &packets, 1, QuantMode::Off);
    assert_eq!(four_a, one, "--shards 4 must equal --shards 1");
    let unsharded = plain_table(clap, &packets, QuantMode::Off);
    assert_eq!(four_a, unsharded, "sharded must equal the plain engine");
}

/// The mixed capture is pinned like the all-v4 one: generator or
/// fragmenter drift fails loudly instead of re-baselining silently.
#[test]
fn protocol_mixed_capture_is_stable() {
    let mut buf = Vec::new();
    write_pcap_raw(&mut buf, &synthesize_mixed_capture()).expect("serialize");
    let on_disk = std::fs::read(mixed_pcap_path()).expect("read checked-in mixed capture");
    assert_eq!(
        buf, on_disk,
        "regenerated capture differs from tests/data/mixed_tiny.pcap — \
         if the generator change is intentional, re-run the ignored \
         `regenerate` test and commit the new file"
    );
}

/// Writes `tests/data/shard_tiny.pcap` and `tests/data/mixed_tiny.pcap`.
/// Ignored: run explicitly (and commit the result) only when a capture
/// must change.
#[test]
#[ignore = "writes the checked-in captures; run explicitly to regenerate"]
fn regenerate_mixed_tiny_pcap() {
    let records = synthesize_mixed_capture();
    let mut buf = Vec::new();
    write_pcap_raw(&mut buf, &records).expect("serialize mixed capture");
    std::fs::create_dir_all(mixed_pcap_path().parent().unwrap()).expect("create tests/data");
    std::fs::write(mixed_pcap_path(), &buf).expect("write mixed capture");
    eprintln!(
        "wrote {} ({} records, {} bytes)",
        mixed_pcap_path().display(),
        records.len(),
        buf.len()
    );
}

/// Writes `tests/data/shard_tiny.pcap`. Ignored: run explicitly (and
/// commit the result) only when the capture must change.
#[test]
#[ignore = "writes the checked-in capture; run explicitly to regenerate"]
fn regenerate_shard_tiny_pcap() {
    let stream = synthesize_capture();
    let mut buf = Vec::new();
    write_pcap(&mut buf, &stream).expect("serialize capture");
    std::fs::create_dir_all(pcap_path().parent().unwrap()).expect("create tests/data");
    std::fs::write(pcap_path(), &buf).expect("write capture");
    eprintln!(
        "wrote {} ({} packets, {} bytes)",
        pcap_path().display(),
        stream.len(),
        buf.len()
    );
}
