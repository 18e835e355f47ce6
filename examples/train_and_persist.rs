//! Model persistence: the "RNN Model Persisted / AE Model Persisted"
//! arrows of the paper's Figure 2 and the "Loaded" arrows of Figure 3.
//!
//! Trains CLAP, serializes the whole detector (`{M_GRU, M_AE}`, the range
//! model and configuration) to JSON, reloads it and proves the deployed
//! copy is behaviourally identical.
//!
//! ```text
//! cargo run --release --example train_and_persist
//! ```

use clap_repro::clap_core::{Clap, ClapConfig};
use clap_repro::traffic_gen;

fn main() {
    let benign = traffic_gen::dataset(5150, 80);
    println!("training CLAP on {} benign connections…", benign.len());
    let (clap, summary) = Clap::train(&benign, &ClapConfig::ci());
    println!(
        "RNN accuracy {:.3}, AE final loss {:.5}",
        summary.rnn_accuracy,
        summary.ae_losses.last().unwrap()
    );

    // Persist.
    let path = std::env::temp_dir().join("clap_model.json");
    let json = clap.to_json().expect("serialize");
    std::fs::write(&path, &json).expect("write model");
    println!(
        "persisted detector: {} ({} KiB)",
        path.display(),
        json.len() / 1024
    );

    // Load in a "fresh deployment" and compare behaviour.
    let loaded = Clap::from_json(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    let probe = traffic_gen::dataset(5151, 10);
    let (mut trained, mut reloaded) = (clap.scorer(), loaded.scorer());
    for conn in &probe {
        let a = trained.score_connection(conn);
        let b = reloaded.score_connection(conn);
        assert_eq!(a.score, b.score);
        assert_eq!(a.peak_packet, b.peak_packet);
    }
    println!(
        "loaded model reproduces all {} probe scores exactly",
        probe.len()
    );
    std::fs::remove_file(&path).ok();
}
