//! Metric definitions (the single list `BENCHMARK.json`, the printed
//! tables, `history.jsonl` and `compare` all follow), result records and
//! their text / JSON renderings.

use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::io::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline's median over runs.
    Rel(f64),
    /// Absolute difference, for metrics whose baseline may be 0.
    Abs(f64),
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Listed under `end_to_end` in `BENCHMARK.json` and printed in the
    /// driver's result line. That contract wants every metric on every
    /// workload, never 0, with a relative bound of at most 25% that the
    /// spread over ten seeds stays inside. `auc_roc` exists on two
    /// workloads only, `failed_share` is 0 by design, and `frame_p99_us`
    /// spread 24% on this box: those three are reported by the one command
    /// and judged by `compare`, while the driver sees them as
    /// `detect.auc_roc`, `failed` / `attempted` and `stream.frame_p99_us`.
    pub in_driver_contract: bool,
}

pub const END_TO_END: [EndToEndDef; 7] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        in_driver_contract: true,
    },
    EndToEndDef {
        name: "frames_per_s",
        unit: "frames/s",
        better: Better::Higher,
        bound: Bound::Rel(0.25),
        in_driver_contract: true,
    },
    EndToEndDef {
        name: "frame_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        in_driver_contract: true,
    },
    EndToEndDef {
        name: "frame_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        in_driver_contract: false,
    },
    EndToEndDef {
        name: "bytes_per_flow",
        unit: "B",
        better: Better::Lower,
        bound: Bound::Rel(0.02),
        in_driver_contract: true,
    },
    EndToEndDef {
        name: "auc_roc",
        unit: "auc",
        better: Better::Higher,
        bound: Bound::Abs(0.01),
        in_driver_contract: false,
    },
    EndToEndDef {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Abs(0.0),
        in_driver_contract: false,
    },
];

/// (name, unit, better) of every per-layer metric, in print order. Every
/// traced run reports every one of them (0 where the layer is idle).
pub const PER_LAYER: [(&str, &str, Better); 41] = [
    ("wire.parse_ns", "ns", Better::Lower),
    ("wire.parse_p99_ns", "ns", Better::Lower),
    ("wire.allocs_per_frame", "count", Better::Lower),
    ("wire.rejected", "count", Better::Lower),
    ("frag.push_ns", "ns", Better::Lower),
    ("frag.fragments_in", "count", Better::Lower),
    ("frag.datagrams_out", "count", Better::Higher),
    ("frag.dropped", "count", Better::Lower),
    ("pcap.read_ns", "ns", Better::Lower),
    ("flows.key_hash_ns", "ns", Better::Lower),
    ("tracker.process_ns", "ns", Better::Lower),
    ("features.extract_ns", "ns", Better::Lower),
    ("gru.step_ns", "ns", Better::Lower),
    ("ae.window_ns", "ns", Better::Lower),
    ("ae.windows", "count", Better::Lower),
    ("ae.pad_windows", "count", Better::Lower),
    ("pipeline.batch_ns_per_pkt", "ns", Better::Lower),
    ("pipeline.stream_over_batch", "ratio", Better::Higher),
    ("stream.push_ns", "ns", Better::Lower),
    ("stream.push_p99_ns", "ns", Better::Lower),
    ("stream.push_p999_ns", "ns", Better::Lower),
    ("stream.push_max_us", "us", Better::Lower),
    ("stream.frame_p99_us", "us", Better::Lower),
    ("stream.residual_ns", "ns", Better::Lower),
    ("stream.drain_ns_per_flow", "ns", Better::Lower),
    ("stream.allocs_per_frame", "count", Better::Lower),
    ("stream.flows_opened", "count", Better::Lower),
    ("stream.closed_tcp", "count", Better::Higher),
    ("stream.evicted_idle", "count", Better::Lower),
    ("stream.evicted_capacity", "count", Better::Lower),
    ("stream.flows_peak", "count", Better::Lower),
    ("stream.table_bytes", "B", Better::Lower),
    ("shard.ns_per_pkt", "ns", Better::Lower),
    ("shard.over_stream", "ratio", Better::Lower),
    ("shard.full_waits", "count", Better::Lower),
    ("shard.imbalance", "ratio", Better::Lower),
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.replay_coverage", "ratio", Better::Higher),
    ("trace.overhead", "ratio", Better::Lower),
    ("detect.auc_roc", "auc", Better::Higher),
    ("detect.unlabelled_flows", "count", Better::Lower),
];

/// One metric of one run: the value reported, and beside it the quartiles
/// of the plain per-pass readings it was distilled from (how unquiet the
/// box was — not the spread of `value`, which `compare` takes over runs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub pass_q1: f64,
    pub pass_q3: f64,
    /// Passes (or set-ups) behind the value; 1 for counts and sizes.
    pub passes: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64, passes: Summary) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            pass_q1: passes.q1,
            pass_q3: passes.q3,
            passes: passes.n,
        }
    }
}

/// Everything one workload's run produced; `--out` files and
/// `history.jsonl` hold one per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub commit: String,
    /// `KernelSet::active().name` — the ISA tier the numbers belong to.
    pub kernels: String,
    pub nproc: usize,
    pub seed: u64,
    /// False for `--smoke` runs: right shape, numbers not for comparison.
    pub comparable: bool,
    pub workload: String,
    pub frames_per_pass: u64,
    pub throughput_passes: usize,
    pub latency_passes: usize,
    /// Verdict digest, identical across all passes of the run.
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// `with_passes`: also print the quartiles of the per-pass readings.
fn print_metrics(title: &str, metrics: &[Metric], with_passes: bool) {
    println!("  {title}");
    if with_passes {
        println!(
            "    {:<28} {:>14} {:>14} {:>14} {:>6}  unit",
            "metric", "value", "pass q1", "pass q3", "passes"
        );
    }
    for m in metrics {
        if with_passes {
            println!(
                "    {:<28} {:>14} {:>14} {:>14} {:>6}  {}",
                m.name,
                fmt_value(m.value),
                fmt_value(m.pass_q1),
                fmt_value(m.pass_q3),
                m.passes,
                m.unit
            );
        } else {
            println!("    {:<28} {:>14}  {}", m.name, fmt_value(m.value), m.unit);
        }
    }
}

pub fn print_record(r: &Record, why: &str) {
    println!(
        "== {} == seed {:#x}  commit {}  kernels {}  nproc {}{}",
        r.workload,
        r.seed,
        r.commit,
        r.kernels,
        r.nproc,
        if r.comparable {
            ""
        } else {
            "  [smoke: NOT comparable]"
        }
    );
    println!("  why: {why}");
    println!(
        "  {} frames/pass, verdict digest {}, failed {}/{}",
        r.frames_per_pass, r.digest, r.failed, r.attempted
    );
    if !r.end_to_end.is_empty() {
        let title = format!(
            "end to end ({} throughput + {} latency passes, untraced)",
            r.throughput_passes, r.latency_passes
        );
        print_metrics(&title, &r.end_to_end, true);
    }
    if !r.per_layer.is_empty() {
        print_metrics("per layer (traced run)", &r.per_layer, false);
    }
}

/// The one-line result the benchmark driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics` (name → value + unit).
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                serde_json::to_string(&m.value).expect("f64 serialises"),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Appends one line per record; never rewrites what is already there.
pub fn append_records(path: &str, records: &[Record]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for r in records {
        let line = serde_json::to_string(r).map_err(std::io::Error::other)?;
        writeln!(f, "{line}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` as far as this test reads it.
    #[derive(Deserialize)]
    struct Contract {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<ContractWorkload>,
        end_to_end: Vec<ContractEndToEnd>,
        per_layer: Vec<ContractLayer>,
    }
    #[derive(Deserialize)]
    struct ContractWorkload {
        name: String,
        why: String,
    }
    #[derive(Deserialize)]
    struct ContractEndToEnd {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }
    #[derive(Deserialize)]
    struct ContractLayer {
        name: String,
        unit: String,
        better: String,
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_reports() {
        let c: Contract = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(c.command, ["bash", "benchmark/run.sh"]);
        assert_eq!(c.paths, ["benchmark"]);
        assert_eq!(c.run_seconds, crate::DEFAULT_SECONDS);

        let ours: Vec<_> = crate::workloads::SPECS
            .iter()
            .map(|s| (s.name, s.why))
            .collect();
        let theirs: Vec<_> = c
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        assert_eq!(ours, theirs);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));

        let ours: Vec<_> = END_TO_END
            .iter()
            .filter(|d| d.in_driver_contract)
            .map(|d| {
                let Bound::Rel(b) = d.bound else {
                    panic!("{}: the contract takes relative bounds only", d.name)
                };
                (d.name, d.unit, d.better.as_str(), b)
            })
            .collect();
        let theirs: Vec<_> = c
            .end_to_end
            .iter()
            .map(|e| (e.name.as_str(), e.unit.as_str(), e.better.as_str(), e.bound))
            .collect();
        assert_eq!(ours, theirs);

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n, u, b.as_str()))
            .collect();
        let theirs: Vec<_> = c
            .per_layer
            .iter()
            .map(|l| (l.name.as_str(), l.unit.as_str(), l.better.as_str()))
            .collect();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn driver_line_has_exactly_the_four_keys_and_full_precision() {
        let metrics = [
            Metric::new(
                "frames_per_s",
                "frames/s",
                74_512.337_219_4,
                Summary::single(7e4),
            ),
            Metric::new("setup_s", "s", 2.0, Summary::single(2.0)),
        ];
        assert_eq!(
            driver_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"frames_per_s\": {\"value\": 74512.3372194, \"unit\": \"frames/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = Record {
            commit: "abc123".into(),
            kernels: "avx2".into(),
            nproc: 2,
            seed: 0xc1a9,
            comparable: true,
            workload: "syn_scan".into(),
            frames_per_pass: 10,
            throughput_passes: 7,
            latency_passes: 5,
            digest: "00ff".into(),
            attempted: 120,
            failed: 0,
            end_to_end: vec![Metric::new(
                "frames_per_s",
                "frames/s",
                4.5,
                Summary::of(&[1.0, 2.0, 4.0]),
            )],
            per_layer: vec![],
        };
        let line = serde_json::to_string(&r).unwrap();
        assert!(!line.contains('\n'), "one record, one line");
        let back: Record = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);
        let m = back.metric("frames_per_s").unwrap();
        assert_eq!(
            (m.value, m.pass_q1, m.pass_q3, m.passes),
            (4.5, 1.0, 4.0, 3)
        );
        assert!(back.metric("nope").is_none());
    }
}
