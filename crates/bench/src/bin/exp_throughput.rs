//! Table 3: model processing throughput (packets/s and connections/s) of
//! CLAP vs Baseline #1 and Baseline #2 (Kitsune), single-threaded as in
//! the paper's one-logical-core setup (§4.4).
//!
//! ```text
//! cargo run -p bench --release --bin exp_throughput -- [--preset quick|ci|paper|scale]
//!     [--threads N] [--shards N] [--json PATH]
//!     [--min-quant-speedup X] [--min-shard-scaling X]
//!     [--max-telemetry-overhead X] [--max-bytes-per-flow BYTES]
//! ```
//!
//! One adversarial corpus is scored by the fused f32 engine, the fused
//! int8 engine, the streaming per-flow engine (the corpus flattened into
//! one timestamp-ordered stream through a single `StreamScorer`), the
//! RSS-sharded streaming engine (`--shards` workers plus the dispatcher,
//! deliberately not pinned by `--threads`) and both baselines.
//! `--preset scale` adds the churn phase: `traffic_gen::churn`'s
//! elephant/mice workload at a plateau of one million concurrent flows,
//! int8 weights and int8 resident state, reporting sustained pkt/s, peak
//! flows and heap bytes per flow. `--json PATH` writes the record; without
//! it no file is written.
//!
//! The four gate options are `bench::GATES`: figures whose two sides come
//! from this one process (int8 ÷ f32, sharded ÷ single stream, telemetry
//! attached vs detached — the median of alternating pairs, the attached
//! side carrying the counter cells and the 1-in-32 sampled stage clocks)
//! or that are pure layout (bytes/flow, churn phase only). There is one
//! build and no environment variable steers the engines: every scorer
//! below runs what the `QuantMode`/`StreamConfig` at its call site says
//! (only `NEURAL_KERNELS` can pin the ISA tier). A missed bound exits
//! non-zero. Whether a number moved since an earlier commit is judged by
//! `benchmark/run.sh`, never here.

use bench::{
    arg_value, evaluate_extended_families, render_table, train_all, ExtendedFamilyRow, Preset,
    GATES,
};
use clap_core::{
    QuantMode, ResidentMode, ShardConfig, ShardHealth, Stage, StageHists, StreamCells, StreamConfig,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};
use traffic_gen::ChurnConfig;

/// Machine-readable throughput record, one per run.
#[derive(Debug, Serialize)]
struct ThroughputReport {
    preset: String,
    threads: usize,
    connections: usize,
    packets: usize,
    /// Packets/second of the fused allocation-free CLAP engine.
    clap_fused_pps: f64,
    /// Packets/second of the streaming per-flow engine (one flow table,
    /// interleaved timestamp-ordered stream).
    clap_stream_pps: f64,
    /// Streaming ÷ fused batch. Both loop the same per-packet scoring core,
    /// so this is the price of the flow table around it (key hash, index
    /// probe, tracker, timers, close policy), not of a second engine.
    stream_over_batch: f64,
    /// Worker shards of the RSS-sharded streaming measurement.
    shards: usize,
    /// Packets/second of the RSS-sharded multi-queue streaming engine
    /// (`shards` worker threads plus the dispatch thread — deliberately
    /// *not* pinned by `--threads`, which models the paper's single-core
    /// batch setup; sharding exists to use the other cores).
    clap_sharded_pps: f64,
    /// Sharded ÷ single-threaded streaming (the multi-core scaling
    /// factor; bounded by the machine's core count).
    shard_scaling: f64,
    /// Packets/second of the int8 quantized fused engine.
    clap_quant_pps: f64,
    /// Int8 ÷ f32 fused packets/second.
    quant_speedup: f64,
    /// 1 − (telemetry-attached ÷ detached) single-stream pps: the
    /// measured fractional hot-path cost of the live telemetry plane.
    /// Slightly negative under run-to-run noise. Gated by
    /// `--max-telemetry-overhead`.
    telemetry_overhead: f64,
    /// Per-shard counter deltas and stage latency summaries of the
    /// measured sharded run, straight from the telemetry hub.
    shard_telemetry: Vec<ShardTelemetryRow>,
    baseline1_pps: f64,
    kitsune_pps: f64,
    /// Peak concurrently tracked flows of the churn phase; `0` (like the
    /// other churn fields) when the run did not measure it.
    flows_peak: u64,
    /// Packets/second sustained by the churn phase; `0.0` when not
    /// measured.
    scale_pps: f64,
    /// Measured flow-table heap bytes per peak live flow; `0.0` when not
    /// measured. Gated by `--max-bytes-per-flow`.
    bytes_per_flow: f64,
    /// Churn-phase packets pushed.
    scale_packets: u64,
    /// Flows reclaimed by idle-timeout expiry during the churn
    /// phase.
    scale_evicted_idle: u64,
    /// Flows evicted at the `max_flows` capacity wall during the churn
    /// phase.
    scale_evicted_capacity: u64,
    /// Flows finalized by observed TCP teardown during the churn phase.
    scale_closed_tcp: u64,
    /// Flows still live at the end of the churn phase (drained).
    scale_drained: u64,
    /// Measured detection for the three Extended protocol-diversity attack
    /// families (IPv6 ext-header corruption, UDP length/checksum games,
    /// overlapping-fragment evasion) over mixed v4/v6/TCP/UDP traffic.
    extended_detection: Vec<ExtendedFamilyRow>,
}

/// One shard's slice of the measured sharded run: the timed pass's own
/// counters ([`ShardStats`](clap_core::ShardStats) is already that run's
/// delta of the lifetime-cumulative hub), plus per-stage latency
/// summaries. The histograms cannot be delta'd — percentiles aren't
/// subtractive — but warm-up and measured pass are the identical
/// workload, so the cumulative distribution is the measured one.
#[derive(Debug, Serialize)]
struct ShardTelemetryRow {
    shard: usize,
    pushed: u64,
    scored: u64,
    dropped: u64,
    quarantined: u64,
    full_waits: u64,
    stages: Vec<StageLatencyRow>,
}

/// One pipeline stage's latency summary (log2-bucket lower bounds).
#[derive(Debug, Serialize)]
struct StageLatencyRow {
    stage: &'static str,
    samples: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

/// Corpus replays per timed run of the telemetry-overhead pair.
const TELEM_PASSES: usize = 1;
/// Attached/detached pairs measured for the telemetry-overhead median.
/// Many short pairs interleave the two sides at a finer grain than few
/// long ones, so machine-wide throughput drift cancels inside each pair.
const TELEM_PAIRS: usize = 21;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = Preset::from_args(&args);
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let shards: usize = arg_value(&args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let json_path = arg_value(&args, "--json");

    // The paper constrains both pipelines to one logical core; a local
    // rayon pool pins our parallelism the same way.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");

    let models = train_all(&preset);

    // Detection for the Extended protocol-diversity families rides along
    // with the throughput run (the paper's 73 are exp_detection's job):
    // each family only applies to mixed v4/v6/TCP/UDP traffic, scored here
    // against a mixed benign distribution.
    let extended_detection = evaluate_extended_families(&models, &preset);
    println!("\n== Extended families: detection over mixed v4/v6/TCP/UDP traffic ==");
    println!(
        "{}",
        render_table(
            &["Family", "Conns", "AUC", "Detect@5%FPR"],
            &extended_detection
                .iter()
                .map(|r| vec![
                    r.strategy_name.clone(),
                    r.connections.to_string(),
                    format!("{:.3}", r.auc),
                    format!("{:.1}%", r.detection_rate * 100.0),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // Adversarial corpus mirroring §4.4: a mixed bag across strategies.
    let mut corpus = Vec::new();
    for strat in dpi_attacks::registry() {
        let set = bench::adversarial_set(strat, &preset);
        corpus.extend(set.into_iter().map(|r| r.connection));
    }
    let packets: usize = corpus.iter().map(net_packet::Connection::len).sum();
    eprintln!(
        "[{}] corpus: {} connections / {} packets, {} thread(s)",
        preset.name,
        corpus.len(),
        packets,
        threads
    );

    // The streaming engine sees what a tap would: one packet stream,
    // interleaved across all flows, in timestamp order.
    let mut stream: Vec<&net_packet::Packet> =
        corpus.iter().flat_map(|c| c.packets.iter()).collect();
    stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));

    let (fused, quant, streaming, memos, telem, b1, kitsune) = pool.install(|| {
        // Warm-up pass so one-time costs (page faults, lazy init) don't
        // skew the first measurement.
        let warm = models.clap.score_connections_with(&corpus, QuantMode::Off);

        let t = Instant::now();
        let s_fused = models.clap.score_connections_with(&corpus, QuantMode::Off);
        let fused = t.elapsed();

        // The int8 quantized fused engine, same corpus, same sharding.
        let quant = {
            let warm_q = models.clap.score_connections_with(&corpus, QuantMode::Int8);
            let t = Instant::now();
            let s_quant = models.clap.score_connections_with(&corpus, QuantMode::Int8);
            let quant = t.elapsed();
            assert_eq!(s_quant.len(), s_fused.len());
            assert_eq!(warm_q.len(), s_quant.len());
            // Wiring sanity only: a genuinely quantized engine never
            // reproduces f32 bitwise over a whole corpus; identical scores
            // mean the int8 path silently degraded to f32 — which the
            // quant floor gate could never catch (ratio ≈ 1.0 is inside
            // any sane noise budget). How far int8 may drift is bounded by
            // the parity test suites on controlled inputs, not here: the
            // small `quick` model's near-zero scores move severalfold.
            assert!(
                s_quant
                    .iter()
                    .zip(&s_fused)
                    .any(|(q, f)| q.score != f.score),
                "int8 scores are bitwise identical to f32 — quantization is disabled"
            );
            quant
        };

        let t = Instant::now();
        let mut scorer = models.clap.stream_scorer();
        for p in &stream {
            scorer.push(p);
        }
        let closed = scorer.finish();
        let streaming = t.elapsed();
        let memos = [
            ("padded windows", scorer.pad_windows()),
            ("prefix GRU steps", scorer.prefix_steps()),
        ];
        let streamed_packets: usize = closed.iter().map(|c| c.packets).sum();
        assert_eq!(
            streamed_packets, packets,
            "streaming must account for every packet"
        );

        // The telemetry tax, measured rather than assumed: the same
        // per-packet streaming run with live counter cells + stage
        // histograms attached vs detached, interleaved as TELEM_PAIRS
        // attached/detached pairs whose per-pair ratios feed a median.
        // (The attached run pays the counter stores and the 1-in-32
        // sampled clock reads; the detached one pays neither.)
        //
        // Each timed run replays the corpus TELEM_PASSES times
        // (timestamps shifted to keep the stream clock monotone).
        let telem_stream: Vec<net_packet::Packet> = {
            let span = stream.last().map_or(0.0, |p| p.timestamp) + 1.0;
            (0..TELEM_PASSES)
                .flat_map(|pass| {
                    stream.iter().map(move |p| {
                        let mut q = (*p).clone();
                        q.timestamp += span * pass as f64;
                        q
                    })
                })
                .collect()
        };
        let run_telemetry = |attach: bool| {
            let mut scorer = models.clap.stream_scorer();
            if attach {
                scorer.attach_telemetry(Arc::new(StreamCells::default()));
                scorer.attach_stages(Arc::new(StageHists::default()));
            }
            let t = Instant::now();
            for p in &telem_stream {
                scorer.push(p);
            }
            let closed = scorer.finish();
            let elapsed = t.elapsed();
            let n: usize = closed.iter().map(|c| c.packets).sum();
            assert_eq!(
                n,
                telem_stream.len(),
                "telemetry run must account for every packet"
            );
            elapsed
        };
        // warm-up
        let _ = run_telemetry(true);
        // The estimator is the median of per-pair ratios, not a ratio
        // of per-side minima: the two runs of a pair are adjacent in
        // time, so frequency/thermal drift cancels inside each pair,
        // and the median discards pairs hit by interference — whereas
        // per-side floors can come from different machine states and
        // make the ratio a comparison across them. Which side runs
        // first alternates per pair so cache/scheduler position bias
        // cancels across the median too. Many short pairs beat few long
        // ones for the same total budget: the shorter the pair window,
        // the less machine-wide drift fits inside it.
        let mut telem_off = Duration::MAX;
        let mut telem_on = Duration::MAX;
        let mut overheads = Vec::new();
        for pair in 0..TELEM_PAIRS {
            let (off, on) = if pair % 2 == 0 {
                let off = run_telemetry(false);
                (off, run_telemetry(true))
            } else {
                let on = run_telemetry(true);
                (run_telemetry(false), on)
            };
            overheads.push(1.0 - off.as_secs_f64() / on.as_secs_f64());
            telem_off = telem_off.min(off);
            telem_on = telem_on.min(on);
        }
        overheads.sort_by(f64::total_cmp);
        let telem = (telem_off, telem_on, overheads[overheads.len() / 2]);

        let t = Instant::now();
        let s_b1 = models.baseline1.score_connections(&corpus);
        let b1 = t.elapsed();

        let t = Instant::now();
        let s_k = models.kitsune.score_connections(&corpus);
        let kitsune = t.elapsed();

        assert_eq!(warm.len(), s_fused.len());
        assert_eq!(s_b1.len(), s_k.len());
        (fused, quant, streaming, memos, telem, b1, kitsune)
    });

    // The RSS-sharded streaming engine runs outside the pinned pool: its
    // whole point is to use `shards` worker cores plus the dispatcher.
    // Teardown mirrors the single-stream measurement (flows scored to
    // stream end), so sharded and unsharded do identical per-flow work.
    let sharded_scorer = models.clap.sharded_scorer_with(ShardConfig {
        shards,
        queue_capacity: 1024,
        ..ShardConfig::default()
    });
    // Warm-up: first run pays thread spawn + page faults.
    let warm = sharded_scorer.score_stream(stream.iter().copied());
    let t = Instant::now();
    let run = sharded_scorer.score_stream(stream.iter().copied());
    let sharded = t.elapsed();
    let telemetry = sharded_scorer.telemetry().snapshot();
    ShardHealth::check_accounting(&run.stats).expect("per-shard accounting invariant");
    // The default `block` policy with no injected faults sheds nothing,
    // so every packet must come back inside a verdict.
    let sharded_packets: usize = run.verdicts.iter().map(|v| v.flow.packets).sum();
    assert_eq!(
        sharded_packets, packets,
        "sharded streaming must account for every packet"
    );
    assert_eq!(warm.verdicts.len(), run.verdicts.len());
    let stalls: u64 = run.stats.iter().map(|s| s.full_waits).sum();
    eprintln!(
        "[{}] sharded run: {} shards, {} flows, {} backpressure stalls",
        preset.name,
        shards,
        run.verdicts.len(),
        stalls
    );
    eprintln!("{}", bench::shard_stats_table(&run.stats));
    let shard_telemetry: Vec<ShardTelemetryRow> = run
        .stats
        .iter()
        .zip(&telemetry.shards)
        .map(|(st, snap)| ShardTelemetryRow {
            shard: st.shard,
            pushed: st.pushed,
            scored: st.packets,
            dropped: st.dropped,
            quarantined: st.quarantined,
            full_waits: st.full_waits,
            stages: Stage::ALL
                .iter()
                .map(|s| {
                    let sum = snap.stages[s.index()];
                    StageLatencyRow {
                        stage: s.name(),
                        samples: sum.count,
                        p50_ns: sum.p50_ns,
                        p99_ns: sum.p99_ns,
                        max_ns: sum.max_ns,
                    }
                })
                .collect(),
        })
        .collect();
    // Sharded workers always attach stage histograms, so this is the
    // measured pass's latency profile; stages nothing sampled (`parse`:
    // the corpus arrives pre-parsed) are left out.
    let rows: Vec<Vec<String>> = shard_telemetry
        .iter()
        .flat_map(|r| {
            r.stages.iter().filter(|s| s.samples > 0).map(|s| {
                vec![
                    r.shard.to_string(),
                    s.stage.to_string(),
                    s.samples.to_string(),
                    s.p50_ns.to_string(),
                    s.p99_ns.to_string(),
                    s.max_ns.to_string(),
                ]
            })
        })
        .collect();
    println!("\n== Per-stage latency (sampled log2 histograms, bucket floors) ==");
    println!(
        "{}",
        render_table(
            &["Shard", "Stage", "Samples", "p50 (ns)", "p99 (ns)", "max (ns)"],
            &rows
        )
    );
    // The churn phase: a high-arrival-rate elephant/mice workload against
    // a million-flow table, measuring sustained pps and per-flow memory.
    // Runs for `--preset scale` only.
    let scale = (preset.name == "scale").then(|| {
        let churn_flows: usize = 1_000_000;
        // Ramp (one SYN per packet) plus enough steady-state churn to
        // cycle the mice several times over.
        let churn_packets = churn_flows * 6;
        let churn_cfg = ChurnConfig {
            // High arrival rate: at the plateau, live flows see a mean
            // inter-packet gap of concurrent/pps seconds — well inside
            // the idle timeout, so eviction pressure comes from TCP
            // teardown churn, not spurious idle expiry.
            pps: 2_000_000.0,
            ..ChurnConfig::new(preset.seed ^ 0x5ca1e, churn_flows, churn_packets)
        };
        let mut scorer = models.clap.stream_scorer_with(StreamConfig {
            quant: QuantMode::Int8,
            resident: ResidentMode::Int8,
            idle_timeout: 30.0,
            // ~3% headroom above the plateau for abandoned (FIN-less)
            // flows awaiting idle expiry; sized so the slab's capacity
            // clamp stays tight around the measured peak.
            max_flows: churn_flows + churn_flows / 32,
            ..StreamConfig::default()
        });
        eprintln!(
            "[{}] churn phase: {} packets toward a {}-flow plateau (int8 resident, {:?} weights)…",
            preset.name,
            churn_packets,
            churn_flows,
            scorer.quant_mode()
        );
        let mut gen = traffic_gen::churn(&churn_cfg);
        let mut closed_packets: usize = 0;
        let mut pushed: usize = 0;
        let t = Instant::now();
        for p in &mut gen {
            scorer.push(&p);
            pushed += 1;
            // Periodic verdict drain, as a long-running tap would do —
            // otherwise the closed-flow queue, not the flow table, would
            // dominate the memory measurement.
            if pushed.is_multiple_of(65_536) {
                closed_packets += scorer
                    .drain_closed()
                    .iter()
                    .map(|c| c.packets)
                    .sum::<usize>();
            }
        }
        let elapsed = t.elapsed();
        // Memory is sampled at full plateau, before the final flush.
        let mem = scorer.mem_bytes();
        let live = scorer.live_flows();
        closed_packets += scorer.finish().iter().map(|c| c.packets).sum::<usize>();
        let stats = scorer.stats();
        assert_eq!(
            closed_packets, pushed,
            "churn phase must account for every packet"
        );
        assert!(
            stats.flows_peak >= churn_flows,
            "churn phase never reached the {churn_flows}-flow plateau (peak {})",
            stats.flows_peak
        );
        let scale_pps = pushed as f64 / elapsed.as_secs_f64();
        let bytes_per_flow = mem as f64 / stats.flows_peak as f64;
        println!("\n== Flow-table scale: {churn_flows}-flow churn phase ==");
        println!(
            "{}",
            render_table(
                &["Metric", "Value"],
                &[
                    vec!["packets".into(), pushed.to_string()],
                    vec!["sustained pkt/s".into(), format!("{scale_pps:.1}")],
                    vec!["flows_peak".into(), stats.flows_peak.to_string()],
                    vec!["live at end".into(), live.to_string()],
                    vec!["table heap (MB)".into(), format!("{:.1}", mem as f64 / 1e6)],
                    vec!["bytes/flow".into(), format!("{bytes_per_flow:.0}")],
                    vec![
                        "closed by TCP teardown".into(),
                        stats.closed_tcp.to_string()
                    ],
                    vec!["evicted idle".into(), stats.evicted_idle.to_string()],
                    vec![
                        "evicted at capacity".into(),
                        stats.evicted_capacity.to_string(),
                    ],
                    vec!["drained at end".into(), stats.drained.to_string()],
                ],
            )
        );
        (scale_pps, bytes_per_flow, stats, pushed)
    });

    let pps = |elapsed: std::time::Duration| packets as f64 / elapsed.as_secs_f64();
    let cps = |elapsed: std::time::Duration| corpus.len() as f64 / elapsed.as_secs_f64();

    println!("\n== Table 3: model processing throughput ({threads} thread(s)) ==");
    println!("   (paper, 1 core: CLAP 2,162.2 pkt/s / 97.0 conn/s; Kitsune 1,444.5 / 64.8 —");
    println!("    absolute numbers differ by implementation; the shape is CLAP > Kitsune)");
    let table = vec![
        vec![
            "CLAP (fused engine)".to_string(),
            format!("{:.1}", pps(fused)),
            format!("{:.1}", cps(fused)),
        ],
        vec![
            "CLAP (fused, int8 quantized)".to_string(),
            format!("{:.1}", pps(quant)),
            format!("{:.1}", cps(quant)),
        ],
        vec![
            "CLAP (streaming per-flow)".to_string(),
            format!("{:.1}", pps(streaming)),
            format!("{:.1}", cps(streaming)),
        ],
        vec![
            format!("CLAP (sharded streaming, {shards} shards)"),
            format!("{:.1}", pps(sharded)),
            format!("{:.1}", cps(sharded)),
        ],
        vec![
            "Baseline #1".to_string(),
            format!("{:.1}", pps(b1)),
            format!("{:.1}", cps(b1)),
        ],
        vec![
            "Kitsune-lite [17]".to_string(),
            format!("{:.1}", pps(kitsune)),
            format!("{:.1}", cps(kitsune)),
        ],
    ];
    println!(
        "{}",
        render_table(&["Model", "Packets/Second", "Connections/Second"], &table)
    );
    println!(
        "streaming vs batch: {:.2}x (streaming {:.1} pkt/s vs fused batch {:.1} pkt/s)",
        pps(streaming) / pps(fused),
        pps(streaming),
        pps(fused)
    );
    for (what, counts) in memos {
        println!(
            "streaming {what}: {} scored, {} answered by the memo ({:.1}%)",
            counts.scored,
            counts.memo_hits,
            100.0 * counts.memo_hits as f64 / counts.scored.max(1) as f64
        );
    }
    println!(
        "shard scaling: {:.2}x over 1-thread streaming ({} shards: {:.1} pkt/s vs {:.1} pkt/s)",
        pps(sharded) / pps(streaming),
        shards,
        pps(sharded),
        pps(streaming)
    );
    println!(
        "quant speedup: {:.2}x (int8 {:.1} pkt/s vs f32 fused {:.1} pkt/s)",
        pps(quant) / pps(fused),
        pps(quant),
        pps(fused)
    );

    // overhead = 1 − pps_on/pps_off = 1 − elapsed_off/elapsed_on per
    // pair; the reported number is the median pair (computed above).
    let telemetry_overhead = telem.2;
    let telem_pps = |d: Duration| (packets * TELEM_PASSES) as f64 / d.as_secs_f64();
    println!(
        "telemetry overhead: {:+.2}% (median of {} pairs; best attached {:.1} pkt/s, \
         best detached {:.1} pkt/s)",
        telemetry_overhead * 100.0,
        TELEM_PAIRS,
        telem_pps(telem.1),
        telem_pps(telem.0)
    );

    let report = ThroughputReport {
        preset: preset.name.clone(),
        threads,
        connections: corpus.len(),
        packets,
        clap_fused_pps: pps(fused),
        clap_stream_pps: pps(streaming),
        stream_over_batch: pps(streaming) / pps(fused),
        shards,
        clap_sharded_pps: pps(sharded),
        shard_scaling: pps(sharded) / pps(streaming),
        clap_quant_pps: pps(quant),
        quant_speedup: pps(quant) / pps(fused),
        telemetry_overhead,
        shard_telemetry,
        baseline1_pps: pps(b1),
        kitsune_pps: pps(kitsune),
        flows_peak: scale.as_ref().map_or(0, |(_, _, s, _)| s.flows_peak as u64),
        scale_pps: scale.as_ref().map_or(0.0, |(p, _, _, _)| *p),
        bytes_per_flow: scale.as_ref().map_or(0.0, |(_, b, _, _)| *b),
        scale_packets: scale.as_ref().map_or(0, |(_, _, _, n)| *n as u64),
        scale_evicted_idle: scale.as_ref().map_or(0, |(_, _, s, _)| s.evicted_idle),
        scale_evicted_capacity: scale.as_ref().map_or(0, |(_, _, s, _)| s.evicted_capacity),
        scale_closed_tcp: scale.as_ref().map_or(0, |(_, _, s, _)| s.closed_tcp),
        scale_drained: scale.as_ref().map_or(0, |(_, _, s, _)| s.drained),
        extended_detection,
    };
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&path, json).expect("write throughput json");
        eprintln!("wrote {path}");
    }

    // Measured figures in `GATES` order; bytes/flow is NaN without the
    // churn phase, which its gate rejects. An unparseable bound must fail
    // the gate, never skip it.
    let measured = [
        report.quant_speedup,
        report.shard_scaling,
        report.telemetry_overhead,
        scale.as_ref().map_or(f64::NAN, |(_, b, _, _)| *b),
    ];
    let mut failed = false;
    for (gate, measured) in GATES.iter().zip(measured) {
        let Some(v) = arg_value(&args, gate.flag) else {
            continue;
        };
        let verdict = match v.parse::<f64>() {
            Ok(bound) => gate.check(measured, bound),
            Err(_) => Err(format!("invalid {} value `{v}`", gate.flag)),
        };
        match verdict {
            Ok(()) => eprintln!("gate OK: {} {measured:.4} ({} {v})", gate.metric, gate.flag),
            Err(msg) => {
                eprintln!("GATE FAILED: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
