//! Ablation study of CLAP's design choices:
//!
//! * **no-stacking** — stacked window of 1 instead of 3 (how much does the
//!   explicit temporal neighbourhood add on top of the gate features?);
//! * **narrow score window** — adversarial-score window of 1 instead of 5
//!   (is the paper's localize-and-estimate averaging actually better than
//!   taking the raw maximum?).
//!
//! Training never reads `score_window`, so the narrow arm trains no third
//! model: it rescores the full model's window errors with
//! `score_errors(errors, 1)`.
//!
//! Baseline #1 (in `exp_detection`) is itself the paper's own ablation of
//! the gate-weight features. Evaluated on a representative strategy
//! subset covering both context categories.
//!
//! ```text
//! cargo run -p bench --release --bin exp_ablation -- [--preset quick|ci|paper]
//! ```

use bench::{adversarial_set, mean, render_table, Preset};
use clap_core::{auc_roc, score_errors, Clap, ClapConfig, ScoredConnection};
use net_packet::Connection;

const STRATEGIES: [&str; 8] = [
    "symtcp-snort-rst-pure",
    "symtcp-gfw-rst-bad-timestamp",
    "symtcp-zeek-data-bad-seq",
    "liberate-low-ttl-min",
    "liberate-bad-tcp-checksum-max",
    "geneva-rst-bad-chksum",
    "geneva-uto-bad-md5",
    "geneva-dataoffset-bad-chksum",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = Preset::from_args(&args);
    let train = traffic_gen::dataset(preset.seed, preset.train_conns);
    let test_benign = traffic_gen::dataset(preset.seed ^ 0x7e57, preset.test_benign);
    let adversarial: Vec<Vec<Connection>> = STRATEGIES
        .iter()
        .map(|id| {
            let strat = dpi_attacks::strategy_by_id(id).expect("a registry strategy id");
            adversarial_set(strat, &preset)
                .into_iter()
                .map(|r| r.connection)
                .collect()
        })
        .collect();

    // Each variant's scored benign split, then one scored set per strategy.
    let scored = |name: &str, cfg: &ClapConfig| -> Vec<Vec<ScoredConnection>> {
        eprintln!("[{}] training variant: {name}", preset.name);
        let (clap, _) = Clap::train(&train, cfg);
        std::iter::once(&test_benign)
            .chain(&adversarial)
            .map(|conns| clap.score_connections(conns))
            .collect()
    };
    let full = scored("full (stack 3, window 5)", &preset.clap);
    let mut nostack_cfg = preset.clap.clone();
    nostack_cfg.stack = 1;
    let nostack = scored("no stacking (stack 1)", &nostack_cfg);

    type Score = fn(&ScoredConnection) -> f32;
    let adjusted: Score = |s| s.score;
    let raw_max: Score = |s| score_errors(&s.window_errors, 1).1;
    let mut rows = Vec::new();
    for (name, sets, score) in [
        ("full (stack 3, window 5)", &full, adjusted),
        ("no stacking (stack 1)", &nostack, adjusted),
        ("raw max (window 1)", &full, raw_max),
    ] {
        let scores: Vec<Vec<f32>> = sets
            .iter()
            .map(|set| set.iter().map(score).collect())
            .collect();
        let (benign, adv) = scores.split_first().expect("the benign set comes first");
        let aucs: Vec<f32> = adv.iter().map(|a| auc_roc(benign, a)).collect();
        let mut row = vec![name.to_string(), format!("{:.3}", mean(&aucs))];
        row.extend(aucs.iter().map(|a| format!("{a:.3}")));
        rows.push(row);
    }

    println!(
        "\n== Ablation: CLAP design choices (mean AUC over {} strategies) ==",
        STRATEGIES.len()
    );
    let mut headers: Vec<&str> = vec!["Variant", "Mean AUC"];
    headers.extend(STRATEGIES.iter().map(|s| &s[..s.len().min(18)]));
    println!("{}", render_table(&headers, &rows));
    println!("expected shape: full ≥ no-stacking and full ≥ raw-max on average;");
    println!("the stacking gap concentrates on inter-packet strategies.");
}
