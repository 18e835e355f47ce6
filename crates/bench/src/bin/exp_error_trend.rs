//! Figure 6: the reconstruction-error trend across an adversarial
//! connection — the spike around the injected packet that motivates the
//! localize-and-estimate adversarial score.
//!
//! Prints an ASCII sparkline of per-window errors for one benign and one
//! attacked copy of the same connection.
//!
//! ```text
//! cargo run -p bench --release --bin exp_error_trend -- [--preset quick|ci|paper]
//!     [--strategy <id>]
//! ```

use bench::{arg_value, Preset};
use clap_core::Clap;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = Preset::from_args(&args);
    let strategy_id =
        arg_value(&args, "--strategy").unwrap_or_else(|| "geneva-rst-bad-chksum".to_string());
    let strategy = dpi_attacks::strategy_by_id(&strategy_id)
        .unwrap_or_else(|| panic!("unknown strategy {strategy_id}"));

    eprintln!("[{}] training CLAP…", preset.name);
    let train = traffic_gen::dataset(preset.seed, preset.train_conns);
    let (clap, _) = Clap::train(&train, &preset.clap);

    // Pick a held-out connection long enough to show a trend.
    let candidates = traffic_gen::dataset(preset.seed ^ 0xf16, 50);
    let mut rng = StdRng::seed_from_u64(6);
    let (conn, attacked) = candidates
        .iter()
        .filter(|c| c.len() >= 12)
        .find_map(|c| strategy.apply(c, &mut rng).map(|r| (c.clone(), r)))
        .expect("no applicable connection found");

    let mut scorer = clap.scorer();
    let benign_scored = scorer.score_connection(&conn);
    let adv_scored = scorer.score_connection(&attacked.connection);

    println!(
        "\n== Figure 6: reconstruction-error trend ({}) ==",
        strategy.name
    );
    println!(
        "injected adversarial packet index(es): {:?}",
        attacked.adversarial_indices
    );
    println!("\nbenign copy   (score {:.4}):", benign_scored.score);
    println!("{}", sparkline(&benign_scored.window_errors, &[]));
    println!(
        "attacked copy (score {:.4}, peak at window {}):",
        adv_scored.score, adv_scored.peak_window
    );
    println!(
        "{}",
        sparkline(&adv_scored.window_errors, &attacked.adversarial_indices)
    );
    println!(
        "\nspike ratio (attacked peak / benign peak): {:.2}",
        max(&adv_scored.window_errors) / max(&benign_scored.window_errors).max(1e-9)
    );
}

fn max(xs: &[f32]) -> f32 {
    xs.iter().copied().fold(0.0, f32::max)
}

/// Renders errors as a two-row ASCII bar chart with window indices.
fn sparkline(errors: &[f32], adversarial: &[usize]) -> String {
    const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let hi = max(errors).max(1e-9);
    let bars: String = errors
        .iter()
        .map(|&e| LEVELS[((e / hi) * (LEVELS.len() - 1) as f32).round() as usize])
        .collect();
    let marks: String = (0..errors.len())
        .map(|w| {
            // A window starting at w covers packets w..w+2.
            if adversarial.iter().any(|&a| (w..w + 3).contains(&a)) {
                '^'
            } else {
                ' '
            }
        })
        .collect();
    let mut out = format!("  errors:  {bars}\n");
    if !adversarial.is_empty() {
        out.push_str(&format!("  adv win:  {marks}\n"));
    }
    for (i, e) in errors.iter().enumerate() {
        if *e == hi {
            out.push_str(&format!("  max = {e:.4} at window {i}"));
            break;
        }
    }
    out
}
