//! The two kinds of run — end to end (untraced passes) and per layer (a
//! separate traced run) — and the output checks both make.
//!
//! Every timing is taken several times over the *same* frames and reduced
//! with [`fastest`]: per chunk of frames (or per frame, or per replay
//! block) the quickest any pass measured. See `stats::fastest` for why.

use crate::drive::{
    detection, run_pass, verdict_digest, ChunkProbe, LatencyProbe, PassOutcome, SpanProbe, CHUNK,
};
use crate::replay::{collect_packets, Replay};
use crate::report::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{fastest, percentile, Summary};
use crate::trace::{Aggregate, Name, Span};
use crate::workloads::{Spec, Workload};
use clap_core::{Clap, ClapConfig, FaultPlan, OverloadPolicy, ShardConfig, ShardHealth};
use net_packet::assemble_connections;
use std::time::{Duration, Instant};

/// Benign connections the model is trained on (`bench::Preset::ci`'s size).
const TRAIN_CONNECTIONS: usize = 60;

/// How much measuring a run does after its warm-up pass.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// End to end: as many passes as fit in this many seconds (warm-up
    /// included), never fewer than 3 throughput + 2 latency. Per layer:
    /// every measurement twice.
    Seconds(f64),
    /// `--smoke`: 2 throughput + 1 latency passes; every per-layer
    /// measurement once.
    Smoke,
}

/// One process's trained model. Training is repeated `setups` times so
/// `setup_s` can be a median; every repetition yields the same model.
pub struct Session {
    pub seed: u64,
    /// Divides every workload size knob (1, or 20 for `--smoke`).
    pub shrink: usize,
    pub clap: Clap,
    train_s: Vec<f64>,
}

impl Session {
    pub fn new(seed: u64, shrink: usize, setups: usize) -> Session {
        let mut train_s = Vec::new();
        let mut clap = None;
        for _ in 0..setups.max(1) {
            let t = Instant::now();
            let benign = traffic_gen::dataset(seed ^ 0x7ea1, TRAIN_CONNECTIONS);
            clap = Some(Clap::train(&benign, &ClapConfig::ci()).0);
            train_s.push(t.elapsed().as_secs_f64());
        }
        Session {
            seed,
            shrink,
            clap: clap.expect("at least one set-up"),
            train_s,
        }
    }

    /// Generates and serialises the workload once per training repetition;
    /// a set-up sample is one training plus one generation.
    fn set_up(&self, spec: &Spec) -> (Workload, Vec<f64>) {
        let mut samples = Vec::new();
        let mut workload = None;
        for train in &self.train_s {
            let t = Instant::now();
            workload = Some(spec.build(self.seed, self.shrink));
            samples.push(train + t.elapsed().as_secs_f64());
        }
        (workload.expect("at least one set-up"), samples)
    }
}

/// What every pass of a run must reproduce exactly.
struct Reference {
    digest: u64,
    offered: u64,
    pushed: u64,
    table_bytes: usize,
    stats: clap_core::StreamStats,
}

impl Reference {
    fn of(o: &PassOutcome) -> Reference {
        Reference {
            digest: verdict_digest(&o.verdicts),
            offered: o.offered,
            pushed: o.pushed,
            table_bytes: o.table_bytes,
            stats: o.stats,
        }
    }

    /// Conservation within the pass, and identity with the first pass.
    fn check(&self, pass: &str, o: &PassOutcome, errors: &mut Vec<String>) {
        for e in o.conservation_errors() {
            errors.push(format!("{pass}: {e}"));
        }
        let digest = verdict_digest(&o.verdicts);
        if digest != self.digest {
            errors.push(format!(
                "{pass}: verdict digest {digest:016x} differs from the first pass's {:016x}",
                self.digest
            ));
        }
        if (o.offered, o.pushed, o.table_bytes, o.stats)
            != (self.offered, self.pushed, self.table_bytes, self.stats)
        {
            errors.push(format!("{pass}: counts differ from the first pass's"));
        }
    }
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Failed output checks (empty = the run is correct).
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub frames_per_pass: u64,
    pub throughput_passes: usize,
    pub latency_passes: usize,
}

/// Frames per second of the pass assembled from each chunk's fastest time.
fn fastest_rate(frames: u64, chunk_rows: &[impl AsRef<[u64]>]) -> f64 {
    frames as f64 * 1e9 / fastest(chunk_rows).iter().sum::<u64>() as f64
}

/// End-to-end metrics from untraced passes: a warm-up, then throughput
/// passes (a clock read per 256 frames) and latency passes (a clock pair
/// per frame) interleaved 3 : 2 so drift over the run hits both alike.
pub fn end_to_end(session: &Session, spec: &Spec, budget: Budget) -> RunResult {
    let (w, setup_s) = session.set_up(spec);
    let clap = &session.clap;
    let started = Instant::now();
    let mut errors = Vec::new();

    let warm = run_pass(clap, &w, &mut ChunkProbe::with_capacity(0));
    let reference = Reference::of(&warm);
    reference.check("warm-up", &warm, &mut errors);
    let detected = w.labels.as_ref().map(|l| detection(&warm.verdicts, l));
    let bytes_per_flow = warm.bytes_per_flow();
    let (mut attempted, mut failed) = (warm.offered, warm.failed());
    let mut pass_s = warm.wall.as_secs_f64();
    drop(warm);

    // Per throughput pass: its chunk row and its plain frames / wall.
    let (mut chunk_rows, mut pass_fps) = (Vec::new(), Vec::new());
    // Per latency pass: every frame's service time, and its own p50 / p99.
    let (mut frame_rows, mut pass_p50, mut pass_p99) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0.. {
        let (t, l) = (chunk_rows.len(), frame_rows.len());
        let (want_t, want_l) = match budget {
            Budget::Seconds(s) => {
                let fits = started.elapsed().as_secs_f64() + pass_s <= s;
                (t < 3 || fits, l < 2 || fits)
            }
            Budget::Smoke => (t < 2, l < 1),
        };
        if !want_t && !want_l {
            break;
        }
        // Positions 1 and 3 of every five are latency passes.
        let outcome = if want_l && (!want_t || matches!(i % 5, 1 | 3)) {
            let mut probe = LatencyProbe::with_capacity(w.frames.len());
            let o = run_pass(clap, &w, &mut probe);
            let mut sorted = probe.samples.clone();
            pass_p50.push(f64::from(percentile(&mut sorted, 0.50)) / 1e3);
            pass_p99.push(f64::from(percentile(&mut sorted, 0.99)) / 1e3);
            frame_rows.push(probe.samples);
            o
        } else {
            let mut probe = ChunkProbe::with_capacity(w.frames.len());
            let o = run_pass(clap, &w, &mut probe);
            pass_fps.push(o.offered as f64 / o.wall.as_secs_f64());
            chunk_rows.push(o.chunk_row(probe.chunk_ns));
            o
        };
        reference.check(&format!("pass {}", i + 1), &outcome, &mut errors);
        attempted += outcome.offered;
        failed += outcome.failed();
        pass_s = outcome.wall.as_secs_f64();
    }
    if failed > 0 {
        errors.push(format!("{failed} of {attempted} frames failed"));
    }

    let mut per_frame = fastest(&frame_rows);
    let setups = Summary::of(&setup_s);
    let mut values = vec![
        ("setup_s", setups.median, setups),
        (
            "frames_per_s",
            fastest_rate(reference.offered, &chunk_rows),
            Summary::of(&pass_fps),
        ),
        (
            "frame_p50_us",
            f64::from(percentile(&mut per_frame, 0.50)) / 1e3,
            Summary::of(&pass_p50),
        ),
        (
            "frame_p99_us",
            f64::from(percentile(&mut per_frame, 0.99)) / 1e3,
            Summary::of(&pass_p99),
        ),
        (
            "bytes_per_flow",
            bytes_per_flow,
            Summary::single(bytes_per_flow),
        ),
    ];
    let failed_share = failed as f64 / attempted as f64;
    values.push(("failed_share", failed_share, Summary::single(failed_share)));
    if let Some(d) = &detected {
        values.push(("auc_roc", d.auc_roc, Summary::single(d.auc_roc)));
    }
    let metrics = END_TO_END
        .iter()
        .filter_map(|def| {
            let (_, value, passes) = values.iter().find(|(n, _, _)| *n == def.name)?;
            Some(Metric::new(def.name, def.unit, *value, *passes))
        })
        .collect();
    RunResult {
        metrics,
        errors,
        attempted,
        failed,
        digest: format!("{:016x}", reference.digest),
        frames_per_pass: reference.offered,
        throughput_passes: chunk_rows.len(),
        latency_passes: frame_rows.len(),
    }
}

/// One traced pass, reduced to per-frame rows (0 where a frame made no
/// such call) plus the few per-pass totals.
struct TracedPass {
    frame_ns: Vec<u32>,
    parse_ns: Vec<u32>,
    frag_ns: Vec<u32>,
    push_ns: Vec<u32>,
    chunk_row: Vec<u64>,
    drain_ns: u64,
    parse_allocs: u64,
    push_allocs: u64,
    coverage: f64,
}

impl TracedPass {
    fn of(spans: &[Span], chunk_ns: Vec<u64>, o: &PassOutcome) -> TracedPass {
        let frames = o.offered as usize;
        let mut rows: [Vec<u32>; 4] = std::array::from_fn(|_| vec![0; frames]);
        for s in spans {
            let row = match s.name {
                Name::Frame => 0,
                Name::WireParse => 1,
                Name::FragPush => 2,
                Name::StreamPush => 3,
                Name::StreamDrain => continue,
            };
            rows[row][s.frame as usize] = s.ns().min(u64::from(u32::MAX)) as u32;
        }
        let [frame_ns, parse_ns, frag_ns, push_ns] = rows;
        let agg = Aggregate::of(spans);
        TracedPass {
            frame_ns,
            parse_ns,
            frag_ns,
            push_ns,
            chunk_row: o.chunk_row(chunk_ns),
            drain_ns: agg.layer(Name::StreamDrain).total_ns,
            parse_allocs: agg.layer(Name::WireParse).allocs,
            push_allocs: agg.layer(Name::StreamPush).allocs,
            coverage: agg.in_layers_ns() as f64 / o.wall.as_nanos() as f64,
        }
    }
}

/// Runs `f` `times` times and keeps the quickest.
fn quickest<T>(times: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed();
        if best.as_ref().is_none_or(|(b, _)| d < *b) {
            best = Some((d, out));
        }
    }
    best.expect("ran at least once")
}

/// Per-layer metrics from a run of its own: boundary spans around the
/// driver's calls (traced passes, paired with untraced ones for the
/// overhead), the layer replay, and direct measurements of the layers the
/// bytes-to-verdict loop does not pass through.
pub fn per_layer(
    session: &Session,
    spec: &Spec,
    budget: Budget,
    trace_out: Option<&str>,
) -> RunResult {
    let (w, _) = session.set_up(spec);
    let clap = &session.clap;
    let mut errors = Vec::new();
    let mut layer = Layers::default();
    let repeats = match budget {
        Budget::Seconds(_) => 2,
        Budget::Smoke => 1,
    };

    let warm = run_pass(clap, &w, &mut ChunkProbe::with_capacity(0));
    let reference = Reference::of(&warm);
    reference.check("warm-up", &warm, &mut errors);
    let (mut attempted, mut failed) = (warm.offered, warm.failed());

    // Counts, from the engine's own books.
    layer.put("wire.rejected", warm.rejected as f64);
    layer.put("frag.fragments_in", warm.fragments_in as f64);
    layer.put("frag.datagrams_out", warm.datagrams_out as f64);
    layer.put("frag.dropped", warm.frag_dropped as f64);
    layer.put("stream.flows_opened", warm.verdicts.len() as f64);
    layer.put("stream.closed_tcp", warm.stats.closed_tcp as f64);
    layer.put("stream.evicted_idle", warm.stats.evicted_idle as f64);
    layer.put(
        "stream.evicted_capacity",
        warm.stats.evicted_capacity as f64,
    );
    layer.put("stream.flows_peak", warm.stats.flows_peak as f64);
    layer.put("stream.table_bytes", warm.table_bytes as f64);
    let detected = w.labels.as_ref().map(|l| detection(&warm.verdicts, l));
    layer.put(
        "detect.auc_roc",
        detected.as_ref().map_or(0.0, |d| d.auc_roc),
    );
    layer.put(
        "detect.unlabelled_flows",
        detected.as_ref().map_or(0.0, |d| d.unlabelled as f64),
    );
    let (frames, pushes, fragments, flows) = (
        warm.offered as f64,
        warm.pushed as f64,
        warm.fragments_in as f64,
        warm.verdicts.len() as f64,
    );
    let padded_in_finish = warm.padded_in_finish(clap.config.stack);
    drop(warm);

    // The packets the scorer is handed, regrouped for (b).
    let packets = collect_packets(&w.frames);
    let conns = assemble_connections(&packets);

    // (a) Boundary spans, as untraced/traced pass pairs, each followed by
    // (b) a layer replay, so that a busy minute on the box hits the three
    // alike and the differences between them stay meaningful.
    let (mut plain_rows, mut traced) = (Vec::new(), Vec::new());
    let mut replayed: Option<Replay> = None;
    for pair in 0..repeats {
        let mut chunks = ChunkProbe::with_capacity(w.frames.len());
        let plain = run_pass(clap, &w, &mut chunks);
        reference.check(&format!("untraced pass {}", pair + 1), &plain, &mut errors);
        plain_rows.push(plain.chunk_row(chunks.chunk_ns));
        attempted += plain.offered;
        failed += plain.failed();
        drop(plain);

        let mut probe = SpanProbe::with_capacity(w.frames.len());
        let o = run_pass(clap, &w, &mut probe);
        reference.check(&format!("traced pass {}", pair + 1), &o, &mut errors);
        attempted += o.offered;
        failed += o.failed();
        let chunk_ns = std::mem::take(&mut probe.chunk_ns);
        traced.push(TracedPass::of(probe.trace.spans(), chunk_ns, &o));
        drop(o);

        // The pin against `score_connection` is checked on the first replay.
        let again = Replay::run(clap, &conns, w.stream.quant, replayed.is_none());
        match &mut replayed {
            Some(r) => r.keep_fastest(&again),
            None => replayed = Some(again),
        }
        if pair + 1 == repeats {
            if let Some(path) = trace_out {
                if let Err(e) = probe.trace.write_jsonl(path) {
                    errors.push(format!("--trace-out {path}: {e}"));
                }
            }
        }
    }
    // Percentiles: over frames, each at its fastest across the passes.
    let per_frame = |f: fn(&TracedPass) -> &Vec<u32>| -> Vec<u32> {
        fastest(&traced.iter().map(f).collect::<Vec<_>>())
    };
    // Means: per 256-frame chunk the fastest pass's total, summed — the
    // same grain the replay's blocks are reduced at, so that the residual
    // between the two is not an artefact of filtering one more finely.
    let total = |f: fn(&TracedPass) -> &Vec<u32>| -> f64 {
        let chunk_sums = |row: &Vec<u32>| -> Vec<u64> {
            row.chunks(CHUNK)
                .map(|c| c.iter().map(|&n| u64::from(n)).sum())
                .collect()
        };
        let rows: Vec<Vec<u64>> = traced.iter().map(|t| chunk_sums(f(t))).collect();
        fastest(&rows).iter().sum::<u64>() as f64
    };
    let mut parse = per_frame(|t| &t.parse_ns);
    // Over the frames that were pushed, not the zeroes of absorbed fragments.
    let mut push: Vec<u32> = per_frame(|t| &t.push_ns)
        .into_iter()
        .filter(|&n| n > 0)
        .collect();
    let push_ns = total(|t| &t.push_ns) / pushes;
    let last = traced.last().expect("at least one traced pass");
    layer.put("wire.parse_ns", total(|t| &t.parse_ns) / frames);
    layer.put("wire.parse_p99_ns", f64::from(percentile(&mut parse, 0.99)));
    layer.put("wire.allocs_per_frame", last.parse_allocs as f64 / frames);
    layer.put("frag.push_ns", total(|t| &t.frag_ns) / fragments.max(1.0));
    layer.put("stream.push_ns", push_ns);
    layer.put("stream.push_p99_ns", f64::from(percentile(&mut push, 0.99)));
    layer.put(
        "stream.push_p999_ns",
        f64::from(percentile(&mut push, 0.999)),
    );
    layer.put(
        "stream.push_max_us",
        f64::from(percentile(&mut push, 1.0)) / 1e3,
    );
    layer.put(
        "stream.frame_p99_us",
        f64::from(percentile(&mut per_frame(|t| &t.frame_ns), 0.99)) / 1e3,
    );
    layer.put(
        "stream.drain_ns_per_flow",
        traced.iter().map(|t| t.drain_ns).min().unwrap_or(0) as f64 / flows.max(1.0),
    );
    layer.put("stream.allocs_per_frame", last.push_allocs as f64 / frames);
    layer.put(
        "trace.coverage",
        Summary::of(&traced.iter().map(|t| t.coverage).collect::<Vec<_>>()).median,
    );
    let plain_fps = fastest_rate(reference.offered, &plain_rows);
    let traced_rows: Vec<&Vec<u64>> = traced.iter().map(|t| &t.chunk_row).collect();
    layer.put(
        "trace.overhead",
        1.0 - fastest_rate(reference.offered, &traced_rows) / plain_fps,
    );
    drop(traced);

    let r = replayed.expect("at least one replay");
    errors.extend(r.mismatches.iter().cloned());
    if r.mismatched > 0 {
        errors.push(format!(
            "layer replay differs from score_connection on {} of {} connections",
            r.mismatched,
            conns.len()
        ));
    }
    if spec.name == "syn_scan" && r.windows != r.pad_windows {
        errors.push(format!(
            "syn_scan must complete no sliding window, saw {}",
            r.windows - r.pad_windows
        ));
    }
    let stage = r.stage_ns();
    let per_packet = |ns: u64| ns as f64 / r.packets.max(1) as f64;
    let window_ns = stage[Replay::AE] as f64 / r.windows.max(1) as f64;
    // What the replay's stages add up to per `push`: everything, less the
    // padded windows the engine computes inside `finish` instead.
    let stages_ns = per_packet(stage.iter().sum())
        - window_ns * padded_in_finish as f64 / r.packets.max(1) as f64;
    layer.put("flows.key_hash_ns", per_packet(stage[Replay::KEY_HASH]));
    layer.put("tracker.process_ns", per_packet(stage[Replay::TRACKER]));
    layer.put("features.extract_ns", per_packet(stage[Replay::FEATURES]));
    layer.put("gru.step_ns", per_packet(stage[Replay::GRU]));
    layer.put("ae.window_ns", window_ns);
    layer.put("ae.windows", r.windows as f64);
    layer.put("ae.pad_windows", r.pad_windows as f64);
    layer.put("stream.residual_ns", push_ns - stages_ns);
    layer.put("trace.replay_coverage", stages_ns / push_ns);

    // Direct: the pcap reader over an in-memory image of the same frames.
    let records: Vec<(f64, Vec<u8>)> = w.frames.iter().map(|(ts, b)| (ts, b.to_vec())).collect();
    let mut image = Vec::new();
    net_packet::pcap::write_pcap_raw(&mut image, &records).expect("writing to a Vec");
    drop(records);
    let (read_t, read) = quickest(repeats, || net_packet::pcap::read_pcap_raw(&image[..]));
    match read {
        Ok(back) if back.len() == w.frames.len() => {}
        Ok(back) => errors.push(format!(
            "pcap image of {} frames read back as {}",
            w.frames.len(),
            back.len()
        )),
        Err(e) => errors.push(format!("pcap image does not read back: {e}")),
    }
    layer.put("pcap.read_ns", read_t.as_nanos() as f64 / frames);
    drop(image);

    // Direct: the batch pipeline over pre-parsed, pre-assembled
    // connections on one thread — the figure the old bench reported.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let (batch_t, scored) = quickest(repeats, || {
        pool.install(|| clap.score_connections_with(&conns, w.stream.quant))
    });
    if scored.len() != conns.len() {
        errors.push("batch pipeline lost connections".to_string());
    }
    drop(scored);
    let batch_ns = batch_t.as_nanos() as f64 / packets.len() as f64;
    layer.put("pipeline.batch_ns_per_pkt", batch_ns);
    layer.put("pipeline.stream_over_batch", batch_ns * plain_fps / 1e9);

    // Direct: the sharded front end with one worker — dispatch, ring and
    // merge as a ratio over the unsharded push. Wall-clock across two
    // threads on a shared box: noisy, and deliberately not end to end.
    let sharded = clap.sharded_scorer_with(ShardConfig {
        shards: 1,
        queue_capacity: 1024,
        stream: w.stream.clone(),
        overload: OverloadPolicy::Block,
        watchdog_limit: 1 << 26,
        faults: FaultPlan::none(),
        dump_flows: false,
    });
    let (shard_t, run) = quickest(repeats, || sharded.score_stream(packets.iter()));
    if let Err(e) = ShardHealth::check_accounting(&run.stats) {
        errors.push(format!("sharded run: {e}"));
    }
    let health = ShardHealth::of(&run.stats);
    if health.scored != packets.len() as u64 {
        errors.push(format!(
            "sharded run scored {} of {} packets",
            health.scored,
            packets.len()
        ));
    }
    let busiest = run.stats.iter().map(|s| s.pushed).max().unwrap_or(0) as f64;
    let shard_ns = shard_t.as_nanos() as f64 / packets.len() as f64;
    layer.put("shard.ns_per_pkt", shard_ns);
    layer.put("shard.over_stream", shard_ns / push_ns);
    layer.put("shard.full_waits", health.full_waits as f64);
    layer.put(
        "shard.imbalance",
        busiest * run.stats.len() as f64 / health.pushed.max(1) as f64,
    );

    if failed > 0 {
        errors.push(format!("{failed} of {attempted} frames failed"));
    }
    RunResult {
        metrics: layer.into_metrics(),
        errors,
        attempted,
        failed,
        digest: format!("{:016x}", reference.digest),
        frames_per_pass: reference.offered,
        throughput_passes: repeats,
        latency_passes: 0,
    }
}

/// Per-layer values by metric name.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.0.iter().all(|(n, _)| *n != name),
            "{name} measured twice"
        );
        self.0.push((name, value));
    }

    /// In `PER_LAYER` order; a metric nobody measured is a bug.
    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let (_, value) = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                Metric::new(name, unit, *value, Summary::single(*value))
            })
            .collect()
    }
}
