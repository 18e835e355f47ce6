//! The paper's motivating example (§1): **Bad-Checksum-RST**.
//!
//! An attacker injects a RST with a garbled TCP checksum right after the
//! three-way handshake. The GFW does not verify checksums, sees a RST, and
//! stops monitoring the connection; the endhost verifies, drops the RST,
//! and the (malicious) conversation continues unobserved. CLAP catches the
//! injected packet because it violates both contexts: a RST "should not
//! take place at this point" (inter-packet) and "the checksum of a RST
//! packet should be correct" (intra-packet).
//!
//! ```text
//! cargo run --release --example detect_bad_checksum_rst
//! ```

use clap_repro::clap_core::{Clap, ClapConfig};
use clap_repro::net_packet::{Connection, TcpFlags};
use clap_repro::tcp_state::{TcpState, TcpTracker};
use clap_repro::traffic_gen;

/// Hand-crafts the attack exactly as §1 describes it.
fn inject_bad_checksum_rst(conn: &Connection) -> Option<(Connection, usize)> {
    let at = conn.first_index_after_handshake()?;
    let mut out = conn.clone();
    let template = &conn.packets[at.min(conn.len() - 1)];
    let mut rst = template.clone();
    rst.tcp_mut().flags = TcpFlags::RST;
    rst.payload.clear();
    rst.fill_checksums();
    rst.tcp_mut().checksum ^= 0x0bad; // the garbled checksum
    out.packets.insert(at, rst);
    Some((out, at))
}

fn main() {
    let benign = traffic_gen::dataset(1337, 120);
    println!("training CLAP on {} benign connections…", benign.len());
    let (clap, _) = Clap::train(&benign, &ClapConfig::ci());
    let threshold = clap.threshold_from_benign(&benign[..60], 0.95);

    let victims = traffic_gen::dataset(2026, 20);
    let mut detected = 0;
    let mut localized = 0;
    let mut applicable = 0;
    let mut scorer = clap.scorer();
    for conn in &victims {
        let Some((attacked, truth)) = inject_bad_checksum_rst(conn) else {
            continue;
        };
        applicable += 1;

        // What does the rigorous reference stack say about the RST?
        let mut tracker = TcpTracker::new();
        let labels: Vec<_> = attacked
            .packets
            .iter()
            .enumerate()
            .map(|(i, p)| tracker.process(p, attacked.direction(i)))
            .collect();
        assert!(!labels[truth].in_window, "endhost must reject the bad RST");
        assert_ne!(
            labels[truth].state,
            TcpState::Close,
            "connection must survive"
        );

        let s = scorer.score_connection(&attacked);
        if s.score > threshold {
            detected += 1;
        }
        if s.peak_packet.abs_diff(truth) <= 2 {
            localized += 1;
        }
    }
    println!("applicable victims:       {applicable}");
    println!("detected (score > thr):   {detected}");
    println!("localized within ±2 pkts: {localized}");
    assert!(
        detected * 2 > applicable,
        "CLAP should detect most Bad-Checksum-RSTs"
    );
}
