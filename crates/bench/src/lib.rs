//! Shared experiment harness for regenerating every table and figure of
//! the CLAP paper. Each `exp_*` binary in `src/bin/` prints the rows of
//! one artifact; this library holds the common machinery: presets,
//! model training, per-strategy evaluation and table formatting.
//!
//! See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results.

use baselines::{Baseline1, Baseline1Config, KitsuneConfig, KitsuneLite};
use clap_core::{auc_roc, equal_error_rate, top_n_hit, Clap, ClapConfig};
use dpi_attacks::{build_adversarial_set, AttackResult, Strategy};
use net_packet::Connection;
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
    /// churn phase against a million-flow table and records `flows_peak`,
    /// `scale_pps` and `bytes_per_flow`.
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
        if !has_flag(args, "--preset") {
            return Preset::quick();
        }
        match arg_value(args, "--preset").as_deref() {
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
pub fn verdict_table(closed: &[clap_core::ClosedFlow], top_n: usize) -> String {
    // Identity strings are formatted once per flow, not per comparison.
    let mut flows: Vec<(String, &clap_core::ClosedFlow)> =
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

/// Renders the per-shard supervision counters of a sharded run: one row
/// per shard plus a totals row — the operator-facing health view of
/// `exp_stream_pcap` and `exp_throughput`.
pub fn shard_stats_table(stats: &[clap_core::ShardStats]) -> String {
    let row = |label: String, s: &clap_core::ShardStats| {
        vec![
            label,
            s.pushed.to_string(),
            s.packets.to_string(),
            s.flows_closed.to_string(),
            s.full_waits.to_string(),
            s.dropped.to_string(),
            s.quarantined.to_string(),
            s.restarts.to_string(),
            s.degraded_windows.to_string(),
        ]
    };
    let mut rows: Vec<Vec<String>> = stats.iter().map(|s| row(s.shard.to_string(), s)).collect();
    let health = clap_core::ShardHealth::of(stats);
    rows.push(vec![
        "total".to_string(),
        health.pushed.to_string(),
        health.scored.to_string(),
        stats
            .iter()
            .map(|s| s.flows_closed)
            .sum::<u64>()
            .to_string(),
        health.full_waits.to_string(),
        health.dropped.to_string(),
        health.quarantined.to_string(),
        health.restarts.to_string(),
        health.degraded_windows.to_string(),
    ]);
    render_table(
        &[
            "Shard", "Pushed", "Scored", "Flows", "Waits", "Dropped", "Quar", "Restarts",
            "Degraded",
        ],
        &rows,
    )
}

/// Returns the value following a `--flag` argument.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True when `--flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// All three trained models plus the data splits they share.
pub struct TrainedModels {
    pub clap: Clap,
    pub baseline1: Baseline1,
    pub kitsune: KitsuneLite,
    pub train: Vec<Connection>,
    pub test_benign: Vec<Connection>,
    pub summary: clap_core::TrainSummary,
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
        train,
        test_benign,
        summary,
    }
}

/// Detection numbers for one (strategy, model) pair.
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
/// connections.
pub fn adversarial_set(strategy: &Strategy, preset: &Preset) -> Vec<AttackResult> {
    let base = traffic_gen::dataset(
        preset.seed ^ 0xadb0 ^ dpi_attacks_hash(strategy.id),
        preset.test_adv_per_strategy,
    );
    build_adversarial_set(strategy, &base, preset.seed)
}

fn dpi_attacks_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Evaluates detection for one strategy across all three models.
pub fn evaluate_strategy(
    models: &TrainedModels,
    strategy: &Strategy,
    preset: &Preset,
    benign_scores: &BenignScores,
) -> DetectionRow {
    let adv = adversarial_set(strategy, preset);
    let adv_conns: Vec<Connection> = adv.iter().map(|r| r.connection.clone()).collect();
    let clap_scores: Vec<f32> = models
        .clap
        .score_connections(&adv_conns)
        .iter()
        .map(|s| s.score)
        .collect();
    let b1_scores: Vec<f32> = models
        .baseline1
        .score_connections(&adv_conns)
        .iter()
        .map(|s| s.score)
        .collect();
    let b2_scores: Vec<f32> = models
        .kitsune
        .score_connections(&adv_conns)
        .iter()
        .map(|s| s.score)
        .collect();

    DetectionRow {
        strategy_id: strategy.id.to_string(),
        strategy_name: strategy.name.to_string(),
        source: format!("{:?}", strategy.source),
        category: format!("{:?}", strategy.category),
        auc: [
            auc_roc(&benign_scores.clap, &clap_scores),
            auc_roc(&benign_scores.baseline1, &b1_scores),
            auc_roc(&benign_scores.kitsune, &b2_scores),
        ],
        eer: [
            equal_error_rate(&benign_scores.clap, &clap_scores),
            equal_error_rate(&benign_scores.baseline1, &b1_scores),
            equal_error_rate(&benign_scores.kitsune, &b2_scores),
        ],
    }
}

/// Benign score distributions per model (computed once, reused across
/// strategies).
pub struct BenignScores {
    pub clap: Vec<f32>,
    pub baseline1: Vec<f32>,
    pub kitsune: Vec<f32>,
}

pub fn benign_scores(models: &TrainedModels) -> BenignScores {
    BenignScores {
        clap: models
            .clap
            .score_connections(&models.test_benign)
            .iter()
            .map(|s| s.score)
            .collect(),
        baseline1: models
            .baseline1
            .score_connections(&models.test_benign)
            .iter()
            .map(|s| s.score)
            .collect(),
        kitsune: models
            .kitsune
            .score_connections(&models.test_benign)
            .iter()
            .map(|s| s.score)
            .collect(),
    }
}

/// Detection summary for one Extended protocol-diversity family (IPv6
/// extension-header corruption, UDP length/checksum games,
/// overlapping-fragment evasion), measured against a *mixed*
/// v4/v6/TCP/UDP benign distribution — the paper's 73 strategies are
/// evaluated in `exp_detection` over the all-v4 corpus; these families
/// only exist on protocol-diverse traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedFamilyRow {
    pub strategy_id: String,
    pub strategy_name: String,
    /// Adversarial connections the family applied to.
    pub connections: usize,
    /// CLAP AUC against the mixed benign score distribution.
    pub auc: f32,
    /// Fraction of adversarial connections scoring above the
    /// 95th-percentile mixed-benign score (≈5% FPR operating point).
    pub detection_rate: f32,
}

/// Score at the `q`-quantile (0..=1) of `scores`, by sorted rank.
fn quantile(scores: &[f32], q: f32) -> f32 {
    let mut sorted = scores.to_vec();
    sorted.sort_by(f32::total_cmp);
    if sorted.is_empty() {
        return f32::NAN;
    }
    let idx = ((sorted.len() - 1) as f32 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Evaluates CLAP detection for the three Extended protocol-diversity
/// families over mixed v4/v6/TCP/UDP traffic. CLAP-only: the families are
/// defined by protocol structure the baselines' feature sets do not model.
pub fn evaluate_extended_families(
    models: &TrainedModels,
    preset: &Preset,
) -> Vec<ExtendedFamilyRow> {
    let benign = traffic_gen::mixed_dataset(preset.seed ^ 0x6e1, preset.test_benign.max(32));
    let benign_scores: Vec<f32> = models
        .clap
        .score_connections(&benign)
        .iter()
        .map(|s| s.score)
        .collect();
    let threshold = quantile(&benign_scores, 0.95);
    dpi_attacks::strategies_from(dpi_attacks::AttackSource::Extended)
        .into_iter()
        .map(|strat| {
            let base = traffic_gen::mixed_dataset(
                preset.seed ^ 0xadb0 ^ dpi_attacks_hash(strat.id),
                preset.test_adv_per_strategy.max(16),
            );
            let adv = build_adversarial_set(strat, &base, preset.seed);
            let conns: Vec<Connection> = adv.iter().map(|r| r.connection.clone()).collect();
            let scores: Vec<f32> = models
                .clap
                .score_connections(&conns)
                .iter()
                .map(|s| s.score)
                .collect();
            let detected = scores.iter().filter(|&&s| s > threshold).count();
            ExtendedFamilyRow {
                strategy_id: strat.id.to_string(),
                strategy_name: strat.name.to_string(),
                connections: conns.len(),
                auc: auc_roc(&benign_scores, &scores),
                detection_rate: detected as f32 / scores.len().max(1) as f32,
            }
        })
        .collect()
}

/// Evaluates CLAP's Top-1/3/5 localization for one strategy
/// (paper Figures 10–12).
pub fn evaluate_localization(
    models: &TrainedModels,
    strategy: &Strategy,
    preset: &Preset,
) -> LocalizationRow {
    let adv = adversarial_set(strategy, preset);
    let mut hits = [0usize; 3];
    let mut scorer = models.clap.scorer();
    for r in &adv {
        let scored = scorer.score_connection(&r.connection);
        let identified = scored.peak_packet;
        for (slot, n) in [(0, 1usize), (1, 3), (2, 5)] {
            hits[slot] += usize::from(top_n_hit(identified, &r.adversarial_indices, n));
        }
    }
    let total = adv.len().max(1) as f32;
    LocalizationRow {
        strategy_id: strategy.id.to_string(),
        strategy_name: strategy.name.to_string(),
        source: format!("{:?}", strategy.source),
        top1: hits[0] as f32 / total,
        top3: hits[1] as f32 / total,
        top5: hits[2] as f32 / total,
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
