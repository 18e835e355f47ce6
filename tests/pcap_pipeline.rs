//! Integration: the pcap path — attacked traces survive a write/read
//! round trip through the on-disk capture format with identical scores
//! (CLAP as an offline forensic tool must behave the same on re-read
//! captures as on live ones).

use clap_repro::clap_core::{Clap, ClapConfig};
use clap_repro::dpi_attacks;
use clap_repro::net_packet::{pcap, Connection};
use clap_repro::traffic_gen;

#[test]
fn scores_survive_pcap_round_trip() {
    let benign = traffic_gen::dataset(0x9ca9, 50);
    let mut cfg = ClapConfig::ci();
    cfg.ae.epochs = 6;
    let (clap, _) = Clap::train(&benign, &cfg);

    // A corruption that does not move the header/payload boundary: a lying
    // data offset would legitimately re-parse differently (the wire bytes
    // are identical but any parser must re-split them), so score equality
    // only holds for boundary-preserving corruptions.
    let victims = traffic_gen::dataset(0x9cb0, 6);
    let strategy = dpi_attacks::strategy_by_id("liberate-bad-tcp-checksum-max").unwrap();
    let attacked = dpi_attacks::build_adversarial_set(strategy, &victims, 2);
    assert!(!attacked.is_empty());

    let mut scorer = clap.scorer();
    for r in &attacked {
        let mut buf = Vec::new();
        pcap::write_pcap(&mut buf, &r.connection.packets).unwrap();
        let packets = pcap::read_pcap(&buf[..]).unwrap();
        assert_eq!(packets.len(), r.connection.len(), "no packets lost");
        let reread = Connection {
            key: r.connection.key,
            packets,
        };

        let a = scorer.score_connection(&r.connection);
        let b = scorer.score_connection(&reread);
        // Timestamps survive at microsecond precision; scores must agree
        // to float tolerance.
        assert!(
            (a.score - b.score).abs() < 1e-4,
            "score drift through pcap: {} vs {}",
            a.score,
            b.score
        );
        assert_eq!(a.peak_packet, b.peak_packet);
    }
}

#[test]
fn corrupted_headers_survive_capture() {
    // The deliberately ill-formed fields (bad checksums, lying lengths,
    // invalid offsets) must round-trip bit-exactly, otherwise the capture
    // sanitizes the attack away.
    let victims = traffic_gen::dataset(0x9cb1, 4);
    for id in [
        "liberate-bad-ip-len-long-max",
        "geneva-dataoffset-bad-chksum",
        "liberate-invalid-ip-version-min",
        "symtcp-gfw-data-bad-chksum-md5",
    ] {
        let strategy = dpi_attacks::strategy_by_id(id).unwrap();
        let attacked = dpi_attacks::build_adversarial_set(strategy, &victims, 3);
        for r in &attacked {
            let mut buf = Vec::new();
            pcap::write_pcap(&mut buf, &r.connection.packets).unwrap();
            let packets = pcap::read_pcap(&buf[..]).unwrap();
            for &i in &r.adversarial_indices {
                let orig = &r.connection.packets[i];
                let back = &packets[i];
                // Byte-exact survival is the real invariant: a corrupted
                // data offset legitimately re-parses with a different
                // header/payload split, but the wire image must be
                // untouched — otherwise the capture sanitized the attack.
                assert_eq!(orig.to_bytes(), back.to_bytes(), "{id}: wire bytes drift");
            }
        }
    }
}
