//! Pins of the evaluation record the detection and localization artifacts
//! are read from, and of the shortcut `exp_ablation` takes for its
//! score-window arm.

use bench::{adversarial_set, Evaluation, Preset};
use clap_core::{score_errors, Clap, ClapConfig};
use net_packet::Connection;

/// Training never reads `score_window`: a model trained with window 1 is
/// the window-5 model, bit for bit, once the config field is set equal,
/// and its scores are `score_errors(errors, 1)` over the window-5 model's
/// window errors. So `exp_ablation` rescores instead of retraining.
#[test]
fn score_window_arm_is_a_rescoring() {
    let preset = Preset::ci();
    let train = traffic_gen::dataset(preset.seed, preset.train_conns);
    let window = |score_window| {
        let cfg = ClapConfig {
            score_window,
            ..ClapConfig::ci()
        };
        Clap::train(&train, &cfg).0
    };
    let full = window(5);
    let mut raw_max = window(1);
    let sets: Vec<Vec<Connection>> = std::iter::once(traffic_gen::dataset(
        preset.seed ^ 0x7e57,
        preset.test_benign,
    ))
    .chain(dpi_attacks::registry().iter().map(|s| {
        adversarial_set(s, &preset)
            .into_iter()
            .map(|r| r.connection)
            .collect()
    }))
    .collect();
    for conns in &sets {
        let rescored = full.score_connections(conns);
        for (one, five) in raw_max.score_connections(conns).iter().zip(&rescored) {
            let expected = score_errors(&five.window_errors, 1).1;
            assert_eq!(one.score.to_bits(), expected.to_bits());
        }
    }
    raw_max.config.score_window = full.config.score_window;
    assert_eq!(raw_max.to_json().unwrap(), full.to_json().unwrap());
}

/// The detection and localization rows are the same bits whether the
/// record is built on one rayon thread or two: training lanes and batch
/// scoring split work by thread count, never the arithmetic.
#[test]
fn evaluation_rows_do_not_depend_on_the_thread_count() {
    let rows = |threads| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let eval = Evaluation::new(&Preset::ci());
            let detection: Vec<(String, Vec<u32>)> = eval
                .detection_rows()
                .into_iter()
                .map(|r| {
                    let bits = r.auc.iter().chain(&r.eer).map(|x| x.to_bits()).collect();
                    (r.strategy_id, bits)
                })
                .collect();
            let localization: Vec<(String, [u32; 3])> = eval
                .localization_rows()
                .into_iter()
                .map(|r| (r.strategy_id, [r.top1, r.top3, r.top5].map(f32::to_bits)))
                .collect();
            (detection, localization)
        })
    };
    let one = rows(1);
    assert_eq!(one.0.len(), dpi_attacks::registry().len());
    assert_eq!(one, rows(2));
}
