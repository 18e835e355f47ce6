//! Shared experiment harness for regenerating every table and figure of
//! the CLAP paper. Each `exp_*` binary in `src/bin/` prints the rows of
//! one artifact, and its module doc says which and how to run it; this
//! library holds the common machinery: presets, model training, the
//! [`Evaluation`] record that the detection and localization artifacts
//! are read from, and table formatting.

use baselines::{Baseline1, Baseline1Config, KitsuneConfig, KitsuneLite};
use clap_core::{
    auc_roc, equal_error_rate, top_n_hit, Clap, ClapConfig, CloseReason, ClosedFlow, FlowEntry,
    ScoredConnection, ShardSnapshot,
};
use dpi_attacks::{build_adversarial_set, registry, AttackResult, Strategy};
use net_packet::{Connection, FlowKey};
use serde::{Deserialize, Serialize};

/// Scale preset for an experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Preset {
    pub name: String,
    /// Benign connections used for training.
    pub train_conns: usize,
    /// Held-out benign connections for the negative score distribution.
    pub test_benign: usize,
    /// Benign connections each strategy is applied to (positives).
    pub test_adv_per_strategy: usize,
    pub clap: ClapConfig,
    pub baseline1: Baseline1Config,
    pub kitsune: KitsuneConfig,
    /// Seed for dataset generation.
    pub seed: u64,
}

impl Preset {
    /// Minutes-scale single-core preset; the default for every binary.
    pub fn quick() -> Self {
        let mut clap = ClapConfig::quick();
        clap.rnn.epochs = 20;
        clap.ae.epochs = 110;
        clap.ae.learning_rate = 3e-3;
        let mut baseline1 = Baseline1Config::quick();
        baseline1.ae.epochs = 40;
        Preset {
            name: "quick".into(),
            train_conns: 250,
            test_benign: 80,
            test_adv_per_strategy: 40,
            clap,
            baseline1,
            kitsune: KitsuneConfig::default(),
            seed: 0xc1a9,
        }
    }

    /// CI-scale: seconds, for integration tests of the harness itself.
    pub fn ci() -> Self {
        let mut p = Self::quick();
        p.name = "ci".into();
        p.train_conns = 60;
        p.test_benign = 24;
        p.test_adv_per_strategy = 12;
        p.clap = ClapConfig::ci();
        p.baseline1.ae.epochs = 12;
        p
    }

    /// Paper-scale (Table 4/Table 6 sizes). An estimate, never run: ≈24
    /// stacked profiles per training connection make ≈740 k autoencoder
    /// rows, and 1 000 epochs over them at the ≈65 k rows·epochs/s that
    /// `examples/profile_kernels` measures for `Autoencoder::train` on the
    /// two training lanes of a 2-vCPU AVX-512 VM (≈1.6× one lane) come to
    /// ≈3 h — nearly all of the preset's training; the GRU's 30 epochs
    /// over ≈750 k packets add minutes.
    pub fn paper() -> Self {
        let mut p = Self::quick();
        p.name = "paper".into();
        p.train_conns = 31_198;
        p.test_benign = 1_000;
        p.test_adv_per_strategy = 75; // ≈ 6,424 test conns over 73 strategies
        p.clap = ClapConfig::paper();
        p.baseline1 = Baseline1Config::paper();
        p
    }

    /// Flow-table-scale preset: CI-sized models (training cost is not the
    /// point), but `exp_throughput` additionally runs the elephant/mice
    /// churn phase against a million-flow table and records it as the
    /// report's `scale` (sustained pps, bytes per flow, flow-table stats).
    pub fn scale() -> Self {
        let mut p = Self::ci();
        p.name = "scale".into();
        p
    }

    /// Parses `--preset quick|ci|paper|scale` from CLI args; `quick` when
    /// the flag is absent.
    ///
    /// # Panics
    ///
    /// If `--preset` has no value or names no preset, so that a typo
    /// cannot run another preset and exit 0.
    pub fn from_args(args: &[String]) -> Preset {
        let Some(i) = args.iter().position(|a| a == "--preset") else {
            return Preset::quick();
        };
        match args.get(i + 1).map(String::as_str) {
            Some("quick") => Preset::quick(),
            Some("ci") => Preset::ci(),
            Some("paper") => Preset::paper(),
            Some("scale") => Preset::scale(),
            other => panic!("--preset {other:?} names no preset; expected quick|ci|paper|scale"),
        }
    }
}

/// Which side of its bound a gated figure must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// A floor: the gate fails when the figure is below the bound.
    AtLeast,
    /// A ceiling: the gate fails when the figure is above the bound.
    AtMost,
}

/// One reference-free gate of `exp_throughput`: a figure whose two sides
/// are measured back to back in one process (so machine speed cancels) or
/// that is pure data-structure layout, compared with a bound given on the
/// command line. Judging a number against an earlier commit is the job of
/// `benchmark/`, not of these.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The option that enables the gate and carries its bound.
    pub flag: &'static str,
    /// Name of the gated figure in the report.
    pub metric: &'static str,
    pub direction: Direction,
}

/// Every gate `exp_throughput` knows, in the order it checks them.
pub const GATES: [Gate; 4] = [
    // Int8 ÷ f32 fused packets/second. At 1.0 it asserts the quantized
    // engine is never slower than f32 on the measuring machine.
    Gate {
        flag: "--min-quant-speedup",
        metric: "quant_speedup",
        direction: Direction::AtLeast,
    },
    // Sharded ÷ single-thread streaming packets/second: the only check
    // that catches a sharded path that silently serialized. It depends on
    // core count (about 0.9 is the ceiling on one core, 4 shards on 4
    // cores should clear 2.5), so set it only where the cores exist.
    Gate {
        flag: "--min-shard-scaling",
        metric: "shard_scaling",
        direction: Direction::AtLeast,
    },
    // 1 − attached ÷ detached streaming packets/second, the median over
    // alternating pairs. Noise pushes it below zero whenever the attached
    // run happens to be faster; that is a pass.
    Gate {
        flag: "--max-telemetry-overhead",
        metric: "telemetry_overhead",
        direction: Direction::AtMost,
    },
    // Flow-table heap bytes per peak live flow of the churn phase: a
    // property of the slab + resident-int8 layout, not of machine speed,
    // so the ceiling is absolute. Unmeasured (no churn phase) is NaN.
    Gate {
        flag: "--max-bytes-per-flow",
        metric: "bytes_per_flow",
        direction: Direction::AtMost,
    },
];

impl Gate {
    /// Passes when `measured` is on the allowed side of `bound`, the bound
    /// itself included. A non-finite measurement or bound fails — a NaN
    /// (how an unmeasured figure arrives) must not sail through a
    /// comparison.
    pub fn check(&self, measured: f64, bound: f64) -> Result<(), String> {
        let Gate { flag, metric, .. } = *self;
        if !bound.is_finite() {
            return Err(format!("{flag} bound {bound} is not a finite number"));
        }
        if !measured.is_finite() {
            return Err(format!(
                "measured {metric} is {measured}, not a number (was it measured?)"
            ));
        }
        let (ok, side) = match self.direction {
            Direction::AtLeast => (measured >= bound, "below the floor"),
            Direction::AtMost => (measured <= bound, "above the ceiling"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{metric} {measured:.4} is {side} {bound:.4} ({flag})"
            ))
        }
    }
}

/// Renders the deterministic per-flow verdict table of a streaming replay:
/// one row per finalized flow, sorted by score (desc) with a total
/// tie-break on flow identity. Shared by `exp_stream_pcap` and the sharded
/// determinism regression tests, which assert the rendered bytes are
/// identical across runs and shard counts — so this function must stay a
/// pure function of the verdict *set* (never of arrival or thread order).
pub fn verdict_table(closed: &[ClosedFlow], top_n: usize) -> String {
    // Identity strings are formatted once per flow, not per comparison.
    let mut flows: Vec<(String, &ClosedFlow)> =
        closed.iter().map(|c| (format!("{}", c.key), c)).collect();
    flows.sort_by(|(ka, a), (kb, b)| {
        b.scored
            .score
            .total_cmp(&a.scored.score)
            .then_with(|| ka.cmp(kb))
            .then(a.packets.cmp(&b.packets))
    });
    let rows: Vec<Vec<String>> = flows
        .iter()
        .map(|(_, c)| c)
        .take(top_n)
        .map(|c| {
            vec![
                format!("{}", c.key.client),
                format!("{}", c.key.server),
                c.packets.to_string(),
                format!("{:?}", c.reason),
                format!("{:.6}", c.scored.score),
                c.scored.peak_packet.to_string(),
            ]
        })
        .collect();
    render_table(
        &["Client", "Server", "Pkts", "Closed by", "Score", "Peak pkt"],
        &rows,
    )
}

/// One finalized flow of a telemetry export: its identity, size, close
/// reason, the shard that scored it, its score and its peak packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerdictRow {
    pub key: FlowKey,
    pub arrival: u64,
    pub packets: usize,
    pub reason: CloseReason,
    pub shard: usize,
    pub score: f32,
    pub peak_packet: usize,
}

impl VerdictRow {
    /// The row of `flow`, finalized on `shard`.
    pub fn new(shard: usize, flow: &ClosedFlow) -> Self {
        VerdictRow {
            key: flow.key,
            arrival: flow.arrival,
            packets: flow.packets,
            reason: flow.reason,
            shard,
            score: flow.scored.score,
            peak_packet: flow.scored.peak_packet,
        }
    }
}

/// What `exp_stream_pcap --telemetry-out` writes, as one JSON document:
/// the run's per-shard counters (an array, one [`ShardSnapshot`] per
/// shard), a row per finalized flow, and the flows still live when the
/// capture ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryExport {
    pub snapshot: Vec<ShardSnapshot>,
    pub verdicts: Vec<VerdictRow>,
    pub flows: Vec<FlowEntry>,
}

/// Returns the value following a `--flag` argument; `None` when the flag
/// is absent.
///
/// # Panics
///
/// If the flag is the last argument: a value flag with nothing after it
/// must not read as absent and run the default.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => panic!("{flag} needs a value"),
    }
}

/// Parses the value following `--flag`; `default` when the flag is
/// absent.
///
/// # Panics
///
/// If the value is missing or does not parse, so that `--shards four`
/// cannot run one shard and exit 0.
pub fn arg_parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg_value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("invalid {flag} value `{v}`")),
    }
}

/// True when `--flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// All three trained models plus the held-out benign split.
pub struct TrainedModels {
    pub clap: Clap,
    pub baseline1: Baseline1,
    pub kitsune: KitsuneLite,
    pub test_benign: Vec<Connection>,
}

impl TrainedModels {
    /// Scores `conns` under CLAP and both baselines; `injected` holds each
    /// connection's injected packet indices, or nothing for a benign split.
    fn score(&self, conns: &[Connection], mut injected: Vec<Vec<usize>>) -> Vec<Scored> {
        injected.resize(conns.len(), Vec::new());
        let b1 = self.baseline1.score_connections(conns);
        let b2 = self.kitsune.score_connections(conns);
        self.clap
            .score_connections(conns)
            .into_iter()
            .zip(b1)
            .zip(b2)
            .zip(injected)
            .map(|(((clap, b1), b2), injected)| Scored {
                clap,
                baselines: [b1.score, b2.score],
                injected,
            })
            .collect()
    }
}

/// Generates the benign splits and trains CLAP + both baselines.
pub fn train_all(preset: &Preset) -> TrainedModels {
    eprintln!(
        "[{}] generating {} train / {} test connections…",
        preset.name, preset.train_conns, preset.test_benign
    );
    let train = traffic_gen::dataset(preset.seed, preset.train_conns);
    let test_benign = traffic_gen::dataset(preset.seed ^ 0x7e57, preset.test_benign);

    eprintln!("[{}] training CLAP…", preset.name);
    let (clap, summary) = Clap::train(&train, &preset.clap);
    eprintln!(
        "[{}] CLAP: rnn accuracy {:.3}, {} profiles, final AE loss {:.5}",
        preset.name,
        summary.rnn_accuracy,
        summary.profiles,
        summary.ae_losses.last().copied().unwrap_or(f32::NAN)
    );
    eprintln!("[{}] training Baseline #1…", preset.name);
    let baseline1 = Baseline1::train(&train, &preset.baseline1);
    eprintln!("[{}] training Baseline #2 (Kitsune-lite)…", preset.name);
    let kitsune = KitsuneLite::train(&train, &preset.kitsune);

    TrainedModels {
        clap,
        baseline1,
        kitsune,
        test_benign,
    }
}

/// Detection numbers for one strategy: the AUC and EER of CLAP, Baseline
/// #1 and Baseline #2, in that order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionRow {
    pub strategy_id: String,
    pub strategy_name: String,
    pub source: String,
    pub category: String,
    pub auc: [f32; 3],
    pub eer: [f32; 3],
}

/// Localization numbers for one strategy (CLAP only, as in the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalizationRow {
    pub strategy_id: String,
    pub strategy_name: String,
    pub source: String,
    pub top1: f32,
    pub top3: f32,
    pub top5: f32,
}

/// Builds the adversarial test set for a strategy from held-out benign
/// connections: the all-IPv4/TCP corpus for the paper's strategies, a
/// mixed v4/v6/TCP/UDP one (at least 16 connections) for the Extended
/// families, which corrupt IPv6 extension headers, UDP lengths and IPv4
/// fragments and so apply only to protocol-diverse traffic. A small
/// mixed draw can hold no connection an Extended family applies to (no
/// UDP flow for a UDP-length lie), so while the set is empty further
/// bases are drawn from successive seeds, up to eight; a first draw that
/// builds anything is used as it is.
pub fn adversarial_set(strategy: &Strategy, preset: &Preset) -> Vec<AttackResult> {
    let seed = preset.seed ^ 0xadb0 ^ dpi_attacks_hash(strategy.id);
    if strategy.source.in_paper() {
        let base = traffic_gen::dataset(seed, preset.test_adv_per_strategy);
        return build_adversarial_set(strategy, &base, preset.seed);
    }
    let n = preset.test_adv_per_strategy.max(16);
    (0..EXTENDED_DRAWS)
        .map(|draw| {
            let base = traffic_gen::mixed_dataset(seed.wrapping_add(draw), n);
            build_adversarial_set(strategy, &base, preset.seed)
        })
        .find(|set| !set.is_empty())
        .unwrap_or_default()
}

/// Mixed base draws an Extended family's adversarial set may take before
/// it is left empty (and [`Evaluation::new`] panics).
const EXTENDED_DRAWS: u64 = 8;

fn dpi_attacks_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// One scored connection: CLAP's window-error log and verdict, the
/// scores of Baseline #1 and Baseline #2, and the packet indices its
/// attack injected (none for a benign connection).
#[derive(Debug, Clone)]
pub struct Scored {
    pub clap: ScoredConnection,
    pub baselines: [f32; 2],
    pub injected: Vec<usize>,
}

/// Everything the detection and localization artifacts (Tables 1–2,
/// Figures 7–12) are computed from: every connection the three trained
/// models scored, each scored once.
pub struct Evaluation {
    /// The held-out all-IPv4/TCP benign split, for the paper's strategies.
    pub benign: Vec<Scored>,
    /// A mixed v4/v6/TCP/UDP benign split (at least 32 connections), for
    /// the Extended families.
    pub benign_mixed: Vec<Scored>,
    /// Every registry strategy's [`adversarial_set`], in registry order.
    pub adversarial: Vec<(&'static Strategy, Vec<Scored>)>,
}

impl Evaluation {
    /// Trains the three models ([`train_all`]) and batch-scores both
    /// benign splits and every registry strategy's adversarial set.
    ///
    /// # Panics
    ///
    /// If a strategy applies to none of its base connections: an empty
    /// positive set would read as a chance-level AUC of 0.5.
    pub fn new(preset: &Preset) -> Evaluation {
        let models = train_all(preset);
        let mixed = traffic_gen::mixed_dataset(preset.seed ^ 0x6e1, preset.test_benign.max(32));
        let adversarial = registry()
            .iter()
            .map(|strategy| {
                let (conns, injected): (Vec<Connection>, Vec<Vec<usize>>) =
                    adversarial_set(strategy, preset)
                        .into_iter()
                        .map(|r| (r.connection, r.adversarial_indices))
                        .unzip();
                assert!(
                    !conns.is_empty(),
                    "strategy {} built no adversarial connection from its corpus",
                    strategy.id
                );
                (strategy, models.score(&conns, injected))
            })
            .collect();
        Evaluation {
            benign: models.score(&models.test_benign, Vec::new()),
            benign_mixed: models.score(&mixed, Vec::new()),
            adversarial,
        }
    }

    /// Per strategy, each model's AUC and EER against the benign split its
    /// adversarial corpus is drawn like.
    pub fn detection_rows(&self) -> Vec<DetectionRow> {
        let scores = |set: &[Scored]| -> [Vec<f32>; 3] {
            let score = |s: &Scored, m: usize| [s.clap.score, s.baselines[0], s.baselines[1]][m];
            std::array::from_fn(|m| set.iter().map(|s| score(s, m)).collect())
        };
        self.adversarial
            .iter()
            .map(|(strategy, adv)| {
                let benign = scores(if strategy.source.in_paper() {
                    &self.benign
                } else {
                    &self.benign_mixed
                });
                let adv = scores(adv);
                DetectionRow {
                    strategy_id: strategy.id.to_string(),
                    strategy_name: strategy.name.to_string(),
                    source: format!("{:?}", strategy.source),
                    category: format!("{:?}", strategy.category),
                    auc: std::array::from_fn(|m| auc_roc(&benign[m], &adv[m])),
                    eer: std::array::from_fn(|m| equal_error_rate(&benign[m], &adv[m])),
                }
            })
            .collect()
    }

    /// Per strategy, the share of adversarial connections whose CLAP peak
    /// packet is within Top-1/3/5 of an injected one.
    pub fn localization_rows(&self) -> Vec<LocalizationRow> {
        self.adversarial
            .iter()
            .map(|(strategy, adv)| {
                let rate = |n| {
                    let hit = |s: &&Scored| top_n_hit(s.clap.peak_packet, &s.injected, n);
                    adv.iter().filter(hit).count() as f32 / adv.len() as f32
                };
                LocalizationRow {
                    strategy_id: strategy.id.to_string(),
                    strategy_name: strategy.name.to_string(),
                    source: format!("{:?}", strategy.source),
                    top1: rate(1),
                    top3: rate(3),
                    top5: rate(5),
                }
            })
            .collect()
    }
}

/// Mean of a slice (NaN-free).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Renders an ASCII table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let sep = |c: char| {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&std::iter::repeat_n(c, w + 2).collect::<String>());
            s.push('+');
        }
        s
    };
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            s.push_str(&format!(" {cell:<w$} |"));
        }
        s
    };
    let mut out = String::new();
    out.push_str(&sep('-'));
    out.push('\n');
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep('='));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&sep('-'));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_scale() {
        let ci = Preset::ci();
        let quick = Preset::quick();
        let paper = Preset::paper();
        assert!(ci.train_conns < quick.train_conns);
        assert!(quick.train_conns < paper.train_conns);
        assert_eq!(paper.train_conns, 31_198, "Table 4 training connections");
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--preset", "ci", "--table1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--preset").as_deref(), Some("ci"));
        assert!(has_flag(&args, "--table1"));
        assert!(!has_flag(&args, "--table2"));
        assert_eq!(Preset::from_args(&args).name, "ci");
    }

    /// An absent `--preset` is `quick`; a name that is not a preset, or a
    /// flag with no value, panics naming the four instead of running
    /// `quick`.
    #[test]
    fn preset_names_are_checked() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        assert_eq!(Preset::from_args(&args(&["--threads", "1"])).name, "quick");
        for name in ["quick", "ci", "paper", "scale"] {
            assert_eq!(Preset::from_args(&args(&["--preset", name])).name, name);
        }
        for bad in [
            &["--preset", "pape"][..],
            &["--preset"],
            &["--preset", "--threads", "1"],
        ] {
            let err = std::panic::catch_unwind(|| Preset::from_args(&args(bad)))
                .expect_err("an unknown preset must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("quick|ci|paper|scale"), "{bad:?}: {msg}");
        }
    }

    /// A numeric flag parses its value or panics naming the flag, and a
    /// value flag given last panics instead of reading as absent and
    /// running the default.
    #[test]
    fn flag_values_are_checked() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        assert_eq!(arg_parsed(&args(&["--shards", "4"]), "--shards", 1usize), 4);
        assert_eq!(arg_parsed(&args(&["--top", "3"]), "--shards", 1usize), 1);
        assert_eq!(arg_value(&args(&["--preset", "ci"]), "--pcap"), None);
        for bad in [
            &["--shards", "four"][..],
            &["--shards", "-1"],
            &["--preset", "ci", "--shards"],
        ] {
            let err = std::panic::catch_unwind(|| arg_parsed(&args(bad), "--shards", 1usize))
                .expect_err("a bad or missing value must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("--shards"), "{bad:?}: {msg}");
        }
        let trailing = args(&["--preset", "ci", "--pcap"]);
        assert!(std::panic::catch_unwind(|| arg_value(&trailing, "--pcap")).is_err());
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    /// Every registry strategy, the Extended families included, applies to
    /// at least one connection of its corpus at every seed tried, so no
    /// detection row averages an empty positive set.
    #[test]
    fn every_strategy_builds_an_adversarial_set() {
        for seed in 0..=8 {
            let preset = Preset {
                seed,
                ..Preset::ci()
            };
            for strategy in dpi_attacks::registry() {
                assert!(
                    !adversarial_set(strategy, &preset).is_empty(),
                    "{} built no adversarial connection at seed {seed}",
                    strategy.id
                );
            }
        }
    }

    #[test]
    fn mean_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn scale_preset_rides_on_ci_models() {
        let s = Preset::scale();
        let ci = Preset::ci();
        assert_eq!(s.name, "scale");
        assert_eq!(s.train_conns, ci.train_conns);
        let args: Vec<String> = ["--preset", "scale"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(Preset::from_args(&args).name, "scale");
    }

    #[test]
    fn every_gate_holds_at_its_bound_and_fails_past_it() {
        let mut flags: Vec<&str> = GATES.iter().map(|g| g.flag).collect();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(flags.len(), GATES.len(), "gate flags must be distinct");
        for gate in GATES {
            let bound = 2.5;
            let (inside, past) = match gate.direction {
                Direction::AtLeast => (bound + 0.5, bound - 0.01),
                Direction::AtMost => (bound - 0.5, bound + 0.01),
            };
            assert!(gate.check(bound, bound).is_ok(), "{} at bound", gate.flag);
            assert!(gate.check(inside, bound).is_ok(), "{} inside", gate.flag);
            let err = gate.check(past, bound).unwrap_err();
            assert!(
                err.contains(gate.metric) && err.contains(gate.flag),
                "{err}"
            );
            for garbage in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(
                    gate.check(garbage, bound).is_err(),
                    "{} {garbage}",
                    gate.flag
                );
                assert!(gate.check(1.0, garbage).is_err(), "{} bound", gate.flag);
            }
            // A zero or negative ratio misses any positive floor. Under a
            // ceiling it passes: a negative telemetry overhead is noise,
            // and an unmeasured size arrives as NaN, not as zero.
            for reading in [0.0, -5.0] {
                let passed = gate.check(reading, bound).is_ok();
                assert_eq!(
                    passed,
                    gate.direction == Direction::AtMost,
                    "{} {reading}",
                    gate.flag
                );
            }
        }
    }

    #[test]
    fn verdict_table_is_order_insensitive() {
        use clap_core::{CloseReason, ClosedFlow, ScoredConnection};
        use net_packet::{Endpoint, FlowKey};
        use std::net::Ipv4Addr;
        let flow = |a: u8, score: f32| ClosedFlow {
            key: FlowKey::new(
                Endpoint::new(Ipv4Addr::new(10, 0, 0, a), 1000 + u16::from(a)),
                Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), 80),
            ),
            packets: usize::from(a) + 3,
            reason: CloseReason::Drained,
            arrival: u64::from(a),
            scored: ScoredConnection {
                peak_packet: 1,
                peak_window: 0,
                window_errors: vec![score],
                score,
            },
        };
        // Two flows with identical scores exercise the identity tie-break.
        let mut closed = vec![flow(1, 0.5), flow(2, 0.75), flow(3, 0.5)];
        let table = verdict_table(&closed, 10);
        closed.reverse();
        assert_eq!(
            verdict_table(&closed, 10),
            table,
            "rendered verdicts must not depend on completion order"
        );
        let top = verdict_table(&closed, 1);
        assert!(top.contains("0.750000"), "top-1 keeps the highest score");
        assert!(!top.contains("0.500000"));
    }
}
