//! Detection-accuracy experiments: Table 1, Table 2 and the per-strategy
//! bar data of Figures 7, 8 and 9.
//!
//! ```text
//! cargo run -p bench --release --bin exp_detection -- [--preset quick|ci|paper]
//!     [--table1] [--table2] [--figure7] [--figure8] [--figure9] [--json out.json]
//! ```
//!
//! With no artifact flag, everything is printed.
//!
//! The `ci` preset scores 24 benign test connections, so its EER moves in
//! steps of 1/24 ≈ 0.042 (the interpolation between ROC points aside): an
//! EER difference smaller than that at `ci` is one benign connection, not
//! a finding. `quick` scores 80 (steps of 0.0125).
//!
//! The paper's 73 strategies are built on, and judged against, all-IPv4/TCP
//! benign traffic. The three Extended families (Table 1's last row) need
//! IPv6 or UDP flows, so theirs are mixed v4/v6/TCP/UDP traffic: at least
//! 16 base connections per family and 32 benign ones.

use bench::{has_flag, mean, render_table, DetectionRow, Evaluation, Preset};
use dpi_attacks::{AttackSource, ContextCategory};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = Preset::from_args(&args);
    let all = !(has_flag(&args, "--table1")
        || has_flag(&args, "--table2")
        || has_flag(&args, "--figure7")
        || has_flag(&args, "--figure8")
        || has_flag(&args, "--figure9"));

    let rows = Evaluation::new(&preset).detection_rows();

    if all || has_flag(&args, "--table1") {
        print_table1(&rows);
    }
    if all || has_flag(&args, "--table2") {
        print_table2(&rows);
    }
    for (flag, source, figure) in [
        ("--figure7", AttackSource::SymTcp, "Figure 7"),
        ("--figure8", AttackSource::Liberate, "Figure 8"),
        ("--figure9", AttackSource::Geneva, "Figure 9"),
    ] {
        if all || has_flag(&args, flag) {
            print_figure(&rows, source, figure);
        }
    }

    if let Some(path) = bench::arg_value(&args, "--json") {
        std::fs::write(&path, serde_json::to_string_pretty(&rows).unwrap()).unwrap();
        eprintln!("wrote {path}");
    }
}

fn source_rows(rows: &[DetectionRow], source: AttackSource) -> Vec<&DetectionRow> {
    let tag = format!("{source:?}");
    rows.iter().filter(|r| r.source == tag).collect()
}

/// The paper's 73 strategies: every row but the Extended families'.
fn paper_rows(rows: &[DetectionRow]) -> Vec<&DetectionRow> {
    let extended = format!("{:?}", AttackSource::Extended);
    rows.iter().filter(|r| r.source != extended).collect()
}

/// The mean AUC and EER over `rs` of the first `models` models (CLAP,
/// Baseline #1, Baseline #2), as table cells.
fn mean_cells(rs: &[&DetectionRow], models: usize) -> Vec<String> {
    let col = |f: &dyn Fn(&DetectionRow) -> f32| {
        format!("{:.3}", mean(&rs.iter().map(|r| f(r)).collect::<Vec<_>>()))
    };
    (0..models)
        .flat_map(|m| [col(&|r| r.auc[m]), col(&|r| r.eer[m])])
        .collect()
}

fn print_table1(rows: &[DetectionRow]) {
    println!("\n== Table 1: mean detection performance per attack source ==");
    println!("   (paper: CLAP 0.953/0.072 [23], 0.952/0.082 [10], 0.988/0.024 [4];");
    println!("    Baseline #1 ≈ 0.8–0.9 AUC, Baseline #2 ≈ 0.5 AUC)");
    let paper = paper_rows(rows);
    let extended = source_rows(rows, AttackSource::Extended);
    let table: Vec<Vec<String>> = [
        (
            "SymTCP [23]".to_string(),
            source_rows(rows, AttackSource::SymTcp),
        ),
        (
            "Liberate [10]".into(),
            source_rows(rows, AttackSource::Liberate),
        ),
        ("Geneva [4]".into(), source_rows(rows, AttackSource::Geneva)),
        (format!("ALL ({})", paper.len()), paper),
        (format!("Extended ({})", extended.len()), extended),
    ]
    .into_iter()
    .map(|(label, rs)| [vec![label], mean_cells(&rs, 3)].concat())
    .collect();
    println!(
        "{}",
        render_table(
            &["Source", "CLAP AUC", "CLAP EER", "B1 AUC", "B1 EER", "B2 AUC", "B2 EER"],
            &table
        )
    );
}

/// Table 2 over the paper's 73 strategies; the Extended families are
/// Table 1's last row.
fn print_table2(rows: &[DetectionRow]) {
    println!("\n== Table 2: inter- vs intra-packet context violations (CLAP vs B1) ==");
    println!(
        "   (paper: inter 0.925/0.109 vs B1 0.672/0.364; intra 0.980/0.039 vs B1 0.923/0.123)"
    );
    let paper = paper_rows(rows);
    let mut table = Vec::new();
    for (cat, name) in [
        (ContextCategory::InterPacket, "Inter-packet"),
        (ContextCategory::IntraPacket, "Intra-packet"),
    ] {
        let tag = format!("{cat:?}");
        let rs: Vec<&DetectionRow> = paper
            .iter()
            .copied()
            .filter(|r| r.category == tag)
            .collect();
        let label = vec![format!("{name} ({})", rs.len()), rs.len().to_string()];
        table.push([label, mean_cells(&rs, 2)].concat());
    }
    println!(
        "{}",
        render_table(
            &["Category", "N", "CLAP AUC", "CLAP EER", "B1 AUC", "B1 EER"],
            &table
        )
    );
}

fn print_figure(rows: &[DetectionRow], source: AttackSource, figure: &str) {
    println!(
        "\n== {figure}: per-strategy detection AUC-ROC ({}) ==",
        source.name()
    );
    let rs = source_rows(rows, source);
    let table: Vec<Vec<String>> = rs
        .iter()
        .map(|r| {
            vec![
                r.strategy_name.clone(),
                format!("{:.3}", r.auc[0]),
                format!("{:.3}", r.auc[1]),
                format!("{:.3}", r.auc[2]),
                format!("{:.3}", r.eer[0]),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Strategy", "CLAP AUC", "B1 AUC", "B2 AUC", "CLAP EER"],
            &table
        )
    );
}
