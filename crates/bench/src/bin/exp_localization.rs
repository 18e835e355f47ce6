//! Localization-accuracy experiments: Figures 10, 11 and 12 (Top-1/3/5
//! hit rates per strategy) plus the §4.2 takeaway averages — over the
//! paper's 73 strategies, beside which the Extended families get a line of
//! their own.
//!
//! Each rate reads CLAP's peak packet off the adversarial connections that
//! [`bench::Evaluation`] batch-scored, against the packet indices each
//! attack injected — the same record `exp_detection` reads its AUCs from.
//!
//! ```text
//! cargo run -p bench --release --bin exp_localization -- [--preset quick|ci|paper]
//!     [--figure10] [--figure11] [--figure12] [--json out.json]
//! ```

use bench::{has_flag, mean, render_table, Evaluation, LocalizationRow, Preset};
use dpi_attacks::AttackSource;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = Preset::from_args(&args);
    let all = !(has_flag(&args, "--figure10")
        || has_flag(&args, "--figure11")
        || has_flag(&args, "--figure12"));

    let rows = Evaluation::new(&preset).localization_rows();

    for (flag, source, figure) in [
        ("--figure10", AttackSource::SymTcp, "Figure 10"),
        ("--figure11", AttackSource::Liberate, "Figure 11"),
        ("--figure12", AttackSource::Geneva, "Figure 12"),
    ] {
        if all || has_flag(&args, flag) {
            print_figure(&rows, source, figure);
        }
    }

    // The paper's figures average its 73 strategies; the Extended
    // families are reported beside them, never folded in.
    let extended = format!("{:?}", AttackSource::Extended);
    let (paper, ext): (Vec<&LocalizationRow>, Vec<&LocalizationRow>) =
        rows.iter().partition(|r| r.source != extended);
    println!("\n== Localization takeaway (§4.2) ==");
    println!("{:<14} Top-1 76.8%   Top-3 91.0%   Top-5 94.6%", "paper");
    print_takeaway(&format!("measured ({})", paper.len()), &paper);
    print_takeaway(&format!("Extended ({})", ext.len()), &ext);

    if let Some(path) = bench::arg_value(&args, "--json") {
        std::fs::write(&path, serde_json::to_string_pretty(&rows).unwrap()).unwrap();
        eprintln!("wrote {path}");
    }
}

/// One takeaway line: the mean Top-1/3/5 hit rates over `rows`.
fn print_takeaway(label: &str, rows: &[&LocalizationRow]) {
    let avg = |f: fn(&LocalizationRow) -> f32| {
        100.0 * mean(&rows.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    println!(
        "{label:<14} Top-1 {:.1}%   Top-3 {:.1}%   Top-5 {:.1}%",
        avg(|r| r.top1),
        avg(|r| r.top3),
        avg(|r| r.top5)
    );
}

fn print_figure(rows: &[LocalizationRow], source: AttackSource, figure: &str) {
    println!(
        "\n== {figure}: per-strategy Top-N localization ({}) ==",
        source.name()
    );
    let tag = format!("{source:?}");
    let table: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| r.source == tag)
        .map(|r| {
            vec![
                r.strategy_name.clone(),
                format!("{:.2}", r.top5),
                format!("{:.2}", r.top3),
                format!("{:.2}", r.top1),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["Strategy", "Top-5", "Top-3", "Top-1"], &table)
    );
}
