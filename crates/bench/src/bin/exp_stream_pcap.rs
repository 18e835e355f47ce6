//! Streaming per-flow scoring of a pcap capture: `net_packet::pcap` →
//! [`ShardedStreamScorer`] — the deployment shape of CLAP's online mode,
//! where a capture file (or a tap writing one) drives the flow tables
//! directly.
//!
//! ```text
//! cargo run -p bench --release --bin exp_stream_pcap -- [--preset quick|ci|paper]
//!     [--pcap CAPTURE.pcap] [--write-pcap PATH] [--top N] [--shards N]
//!     [--overload-policy block|drop-newest] [--fault-plan SPEC]
//!     [--telemetry-out PATH] [--dump-flows] [--render head-tail]
//!     [--render-frames N]
//! ```
//!
//! With `--pcap`, scores the given `LINKTYPE_RAW` capture. Without it, the
//! binary synthesizes a capture from generated traffic (benign plus a
//! slice of adversarial connections), round-trips it through the pcap
//! writer/reader — so the exercised path is byte-identical to ingesting a
//! real file — and scores that. `--write-pcap` additionally keeps the
//! synthetic capture on disk for reuse with tcpdump/Wireshark or later
//! runs.
//!
//! Packets are replayed in capture order through the RSS-sharded
//! multi-queue engine at every shard count: `--shards N` workers, one
//! [`StreamScorer`] flow table each (default 1). Every flow's verdict is
//! emitted on TCP teardown, idle timeout or the end-of-capture flush,
//! exactly as in a live deployment. The printed verdict table is
//! deterministic: a pure function of (capture, shard count),
//! byte-identical across runs — and byte-identical across shard counts
//! too whenever no idle-timeout eviction fires (any capture shorter than
//! the 300 s default `idle_timeout`; per-shard clocks may split
//! longer-quiet flows differently). The sharded regression tests pin
//! this.
//!
//! The engine is *supervised*: `--overload-policy` selects what happens
//! on ring-full (default `block`), `--fault-plan` injects a deterministic
//! fault schedule (`panic@N`, `kill@N`, `stall@N[:MS]`, `burst@A..B`,
//! `malform@N`, `random@SEED` — comma-separated) so the failure paths can
//! be exercised from the CLI.
//! After the verdict table comes one per-shard table, `render_snapshot`
//! of the run's stats (a [`ShardSnapshot`] per shard: pushed, scored,
//! dropped, quarantined, flow-table gauges, backpressure waits, restarts,
//! then the sampled stage latencies), and a line per quarantined packet.
//!
//! # Telemetry and introspection
//!
//! The run feeds the engine's live telemetry plane (a [`TelemetryHub`]),
//! and the replay harness times the wire→packet **parse** stage from a
//! 1-in-32 sample of the raw capture records — the scorer never sees
//! wire bytes, so that stage belongs to the harness. It is timed into
//! shard 0's histograms before the replay, outside the timed region, so
//! the run's stage summaries (taken raw, not subtracted) carry it.
//!
//! - `--dump-flows` prints a conntrack-style table of every flow still
//!   live at end of stream (state, age, idle, packets, bytes, current
//!   score), before the final drain closes them. A flow's age and idle time are measured against
//!   the capture's last timestamp, so the table reads the same at every
//!   `--shards` count. There is no TIME_WAIT linger: a flow that reaches
//!   TIME_WAIT closed on that packet and is in the verdicts, not here.
//! - `--telemetry-out PATH` writes the run as one JSON document
//!   ([`TelemetryExport`]) with three keys:
//!   - `snapshot`: the run's stats, an array with one [`ShardSnapshot`]
//!     per shard: `snapshot[i]` holds shard `i`'s counters, its `stream`
//!     the flow-table counters and gauges, and its `stages[j]`
//!     summarizes `Stage::ALL[j]`;
//!   - `verdicts`: one row per finalized flow: `key`, `arrival`,
//!     `packets`, `reason`, `shard`, `score`, `peak_packet`;
//!   - `flows`: the [`FlowEntry`] of every flow still live at end of
//!     stream, the rows `--dump-flows` prints, with its `first_seen` and
//!     `last_seen` capture timestamps.
//!
//!   A non-finite float is written as `null`, which the vendored
//!   `serde_json` reads back as NaN; no finalized flow's score is
//!   non-finite. The text is parsed back and compared with what was
//!   written before the file is kept, so a run never leaves behind an
//!   export it cannot read.
//! - `--render head-tail` hexdumps the first and last `--render-frames`
//!   (default 4) records of the capture with their true file offsets and
//!   a parse annotation per frame — the quickest "is this capture what I
//!   think it is" check.
//!
//! [`StreamScorer`]: clap_core::stream::StreamScorer
//! [`ShardedStreamScorer`]: clap_core::ShardedStreamScorer
//! [`TelemetryHub`]: clap_core::TelemetryHub
//! [`ShardSnapshot`]: clap_core::ShardSnapshot

use bench::{
    arg_parsed, arg_value, render_table, verdict_table, Preset, TelemetryExport, VerdictRow,
};
use clap_core::stream::CloseReason;
use clap_core::{
    Clap, ClosedFlow, FaultPlan, FlowEntry, OverloadPolicy, ShardConfig, ShardSnapshot, Stage,
    StageHists,
};
use clap_telemetry::render::{hexdump, render_snapshot};
use net_packet::pcap::{read_pcap, read_pcap_raw, write_pcap};
use net_packet::Packet;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = Preset::from_args(&args);
    let top_n: usize = arg_parsed(&args, "--top", 10);
    let shards: usize = arg_parsed(&args, "--shards", 1).max(1);
    let telemetry_out = arg_value(&args, "--telemetry-out");
    let pcap = arg_value(&args, "--pcap");
    let write_pcap = arg_value(&args, "--write-pcap");
    let overload_policy = arg_value(&args, "--overload-policy");
    let fault_plan = arg_value(&args, "--fault-plan");
    let dump_flows = args.iter().any(|a| a == "--dump-flows");
    let render_head_tail = match arg_value(&args, "--render").as_deref() {
        None => false,
        Some("head-tail") => true,
        Some(other) => {
            eprintln!("invalid --render value `{other}` (expected `head-tail`)");
            std::process::exit(2);
        }
    };
    let render_frames: usize = arg_parsed(&args, "--render-frames", 4).max(1);
    // The flow dump is collected for the export too: an export without
    // the live flows would be a partial picture.
    let want_flows = dump_flows || telemetry_out.is_some();

    // Train CLAP only — the baselines have no streaming mode.
    eprintln!("[{}] training CLAP…", preset.name);
    let benign = traffic_gen::dataset(preset.seed, preset.train_conns);
    let (clap, _) = Clap::train(&benign, &preset.clap);

    // The raw capture bytes are kept alongside the parsed packets: the
    // head/tail view and the parse-stage timing both consume what is on
    // disk, not the post-parse form.
    let (packets, raw_capture) = match pcap {
        Some(path) => {
            let bytes = std::fs::read(&path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            });
            let packets = read_pcap(&bytes[..]).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "[{}] loaded {} TCP packets from {path}",
                preset.name,
                packets.len()
            );
            (packets, bytes)
        }
        None => synthetic_capture(&preset, write_pcap.as_deref()),
    };
    if packets.is_empty() {
        eprintln!("capture contains no scorable TCP packets");
        std::process::exit(1);
    }

    if render_head_tail {
        show_head_tail(&raw_capture, render_frames);
    }

    let policy = match overload_policy {
        Some(spec) => OverloadPolicy::parse(&spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => OverloadPolicy::Block,
    };
    let plan = match fault_plan {
        Some(spec) => FaultPlan::parse(&spec, packets.len() as u64).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => FaultPlan::none(),
    };
    if !plan.is_empty() {
        clap_core::shard::fault::silence_injected_panics();
        eprintln!("[{}] injecting faults: {:?}", preset.name, plan.faults());
    }
    // Only a fault-free Block run guarantees zero loss; under shed
    // policies or injected faults the accounting invariant (checked
    // below) replaces the exact packet-count assert.
    let mut lossless = plan.is_empty() && policy == OverloadPolicy::Block;

    // Replay in capture order, hash-sharded across `shards` worker
    // queues: the arrival order per flow is what a line-rate tap would
    // deliver.
    let scorer = clap.sharded_scorer_with(ShardConfig {
        shards,
        overload: policy,
        faults: plan,
        dump_flows: want_flows,
        ..ShardConfig::default()
    });
    // Parse-stage latency, sampled from the raw capture bytes outside
    // the timed replay. The histograms are cumulative and a run's stage
    // summaries are taken raw, so the run's stats carry these samples.
    time_parse_stage(&scorer.telemetry().shard(0).stages, &raw_capture);
    let t = Instant::now();
    let run = match scorer.try_score_stream(packets.iter()) {
        Ok(run) => run,
        Err(e) => {
            // A dead or stuck shard degrades the run; the survivors'
            // verdicts below are still exact for their flows.
            eprintln!("[{}] DEGRADED RUN: {e}", preset.name);
            lossless = false;
            e.partial
        }
    };
    let elapsed = t.elapsed();
    ShardSnapshot::check_accounting(&run.stats).expect("per-shard accounting invariant");
    let inline_closes = run
        .verdicts
        .iter()
        .filter(|v| v.flow.reason != CloseReason::Drained)
        .count();
    let stalls = ShardSnapshot::total(&run.stats).full_waits;
    eprintln!(
        "[{}] {} shards ({} policy), {} backpressure stalls",
        preset.name, shards, policy, stalls
    );
    let mut shard_report = render_snapshot(&run.stats);
    for q in &run.quarantined {
        shard_report.push_str(&format!("quarantined: {q}\n"));
    }
    let verdict_shards: Vec<usize> = run.verdicts.iter().map(|v| v.shard).collect();
    let closed: Vec<ClosedFlow> = run.verdicts.into_iter().map(|v| v.flow).collect();
    let live_flows = run.flows;

    let streamed: usize = closed.iter().map(|c| c.packets).sum();
    if lossless {
        assert_eq!(
            streamed,
            packets.len(),
            "every packet must be accounted for"
        );
    }

    let mut by_reason = [0usize; 5];
    for c in &closed {
        let slot = match c.reason {
            CloseReason::TcpClose => 0,
            CloseReason::IdleTimeout => 1,
            CloseReason::CapacityEvicted => 2,
            CloseReason::LengthCapped => 3,
            CloseReason::Drained => 4,
        };
        by_reason[slot] += 1;
    }

    println!("\n== Streaming pcap replay ({} preset) ==", preset.name);
    println!(
        "{} packets / {} flows in {:.3}s — {:.1} pkt/s ({} finalized inline, {} at flush)",
        packets.len(),
        closed.len(),
        elapsed.as_secs_f64(),
        packets.len() as f64 / elapsed.as_secs_f64(),
        inline_closes,
        closed.len() - inline_closes,
    );
    println!(
        "close reasons: {} tcp-close, {} idle, {} capacity, {} length-cap, {} drained",
        by_reason[0], by_reason[1], by_reason[2], by_reason[3], by_reason[4]
    );

    // Highest-scoring flows: where an analyst would look first. The table
    // renderer sorts internally and is deterministic across shard counts.
    println!("{}", verdict_table(&closed, top_n));

    // Per-shard counters: the operator's view of backpressure,
    // shedding, quarantines, restarts and where a packet's time goes.
    println!("{shard_report}");

    if dump_flows {
        println!(
            "== Flow table at end of stream ({} live flows) ==",
            live_flows.len()
        );
        let end = packets
            .iter()
            .map(|p| p.timestamp)
            .fold(f64::NEG_INFINITY, f64::max);
        println!("{}", flow_table(&live_flows, end));
    }

    if let Some(path) = telemetry_out {
        let export = TelemetryExport {
            snapshot: run.stats,
            verdicts: closed
                .iter()
                .zip(verdict_shards)
                .map(|(c, shard)| VerdictRow::new(shard, c))
                .collect(),
            flows: live_flows,
        };
        let json = serde_json::to_string(&export).expect("serialize telemetry");
        let back: TelemetryExport =
            serde_json::from_str(&json).expect("self-written telemetry must parse back");
        assert_eq!(back, export, "telemetry export must round-trip");
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "wrote {} verdicts and {} live flows ({} bytes) to {path}",
            export.verdicts.len(),
            export.flows.len(),
            json.len()
        );
    }
}

/// Builds a mixed benign + adversarial capture, writes it as a pcap and
/// reads it back, so scoring consumes exactly what a real capture file
/// would deliver (including the microsecond timestamp quantization).
/// Returns the parsed packets together with the capture bytes.
fn synthetic_capture(preset: &Preset, keep_path: Option<&str>) -> (Vec<Packet>, Vec<u8>) {
    let mut conns = traffic_gen::dataset(preset.seed ^ 0x9ca9, preset.test_benign.max(8));
    // A few adversarial connections so the top-of-table scores mean
    // something: one strategy is plenty for a replay demo.
    if let Some(strategy) = dpi_attacks::registry().first() {
        let adv = bench::adversarial_set(strategy, preset);
        conns.extend(adv.into_iter().map(|r| r.connection));
    }
    let mut stream: Vec<Packet> = conns
        .iter()
        .flat_map(|c| c.packets.iter().cloned())
        .collect();
    stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));

    let mut buf = Vec::new();
    write_pcap(&mut buf, &stream).expect("serialize capture");
    if let Some(path) = keep_path {
        std::fs::write(path, &buf).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[{}] wrote synthetic capture to {path}", preset.name);
    }
    let packets = read_pcap(&buf[..]).expect("round-trip capture");
    eprintln!(
        "[{}] synthetic capture: {} connections / {} packets (pcap round-trip)",
        preset.name,
        conns.len(),
        packets.len()
    );
    (packets, buf)
}

/// Times the wire→[`Packet`] parse over a 1-in-32 sample of the raw
/// capture records, under [`Stage::Parse`]. The scorer never touches
/// wire bytes — parsing belongs to the replay harness — so this stage is
/// timed here, with a plain [`Instant`], not by the scorer's sampled
/// clocks.
fn time_parse_stage(stages: &StageHists, raw_capture: &[u8]) {
    let Ok(records) = read_pcap_raw(raw_capture) else {
        return;
    };
    for (ts, bytes) in records.iter().step_by(32) {
        let t = Instant::now();
        let _ = Packet::from_bytes(*ts, bytes);
        stages.record(Stage::Parse, t.elapsed().as_nanos() as u64);
    }
}

/// Hexdumps the first and last `n` records of the capture with their
/// true file offsets (24-byte global header, 16-byte record headers) and
/// a one-line parse annotation per frame.
fn show_head_tail(raw_capture: &[u8], n: usize) {
    let records = match read_pcap_raw(raw_capture) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot re-read capture for --render: {e}");
            return;
        }
    };
    let mut offsets = Vec::with_capacity(records.len());
    let mut off = 24usize;
    for (_, bytes) in &records {
        offsets.push(off + 16); // frame data starts past the record header
        off += 16 + bytes.len();
    }
    let show = |i: usize| {
        let (ts, bytes) = &records[i];
        let note = match Packet::from_bytes(*ts, bytes) {
            Ok(p) => format!(
                "{}:{} -> {}:{}, {} payload bytes",
                p.src_addr(),
                p.src_port(),
                p.dst_addr(),
                p.dst_port(),
                p.payload.len()
            ),
            Err(e) => format!("unparsed ({e:?})"),
        };
        println!("frame {i} @ {ts:.6}s, {} bytes — {note}", bytes.len());
        print!("{}", hexdump(bytes, offsets[i]));
    };
    println!(
        "\n== Capture head/tail ({} records, showing {} each end) ==",
        records.len(),
        n.min(records.len())
    );
    for i in 0..records.len().min(n) {
        show(i);
    }
    let tail_start = records.len().saturating_sub(n).max(records.len().min(n));
    if tail_start > n {
        println!("… {} records elided …", tail_start - n);
    }
    for i in tail_start..records.len() {
        show(i);
    }
}

/// Renders the conntrack-style flow table: one row per flow still live
/// at end of stream, its age and idle time measured at capture time `end`.
fn flow_table(flows: &[FlowEntry], end: f64) -> String {
    render_table(
        &[
            "Proto", "Client", "Server", "State", "Age (s)", "Idle (s)", "Pkts", "Bytes", "Score",
        ],
        &flows
            .iter()
            .map(|f| {
                vec![
                    match f.key.proto {
                        6 => "tcp".to_string(),
                        17 => "udp".to_string(),
                        p => p.to_string(),
                    },
                    f.key.client.to_string(),
                    f.key.server.to_string(),
                    f.state.map_or("-".to_string(), |s| format!("{s:?}")),
                    format!("{:.3}", end - f.first_seen),
                    format!("{:.3}", end - f.last_seen),
                    f.packets.to_string(),
                    f.bytes.to_string(),
                    format!("{:.4}", f.score),
                ]
            })
            .collect::<Vec<_>>(),
    )
}
