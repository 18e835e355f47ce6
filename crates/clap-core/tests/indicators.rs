//! The packet-feature slots [`INDICATOR_MASK`] names hold exactly `0.0`
//! or `1.0` — by bits — on every input: arbitrary packets, corrupted and
//! re-parsed from the wire, and every attack strategy's traces. A flow's
//! resident profile keeps those slots as one bit each, so a slot that
//! could hold anything else would change the windows it is scored on.

use clap_core::{
    extract_connection, FeatureExtractor, FeatureVector, RangeModel, INDICATOR_MASK, NUM_PACKET,
};
use net_packet::{
    Direction, Ipv4Header, Ipv6ExtHeader, Ipv6Header, Packet, TcpFlags, TcpHeader, TcpOption,
    UdpHeader,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::OnceLock;

/// Panics unless every indicator slot of `features` is `+0.0` or `1.0`.
fn assert_indicators(features: &[f32], what: &dyn std::fmt::Display) {
    assert_eq!(features.len(), NUM_PACKET);
    for (s, v) in features.iter().enumerate() {
        if INDICATOR_MASK >> s & 1 == 1 {
            assert!(
                v.to_bits() == 0 || v.to_bits() == 1f32.to_bits(),
                "{what}: indicator slot {s} holds {v:?}"
            );
        }
    }
}

/// Two range models: one fit on benign traffic, and one fit on a single
/// packet, whose ranges are narrow enough to light most out-of-range
/// flags.
fn ranges() -> &'static [RangeModel; 2] {
    static RANGES: OnceLock<[RangeModel; 2]> = OnceLock::new();
    RANGES.get_or_init(|| {
        let benign: Vec<FeatureVector> = traffic_gen::dataset(0x1d1c, 30)
            .iter()
            .flat_map(extract_connection)
            .collect();
        [
            RangeModel::fit(&benign),
            RangeModel::fit(std::iter::once(&benign[0])),
        ]
    })
}

/// Checks packet `p`'s features in both directions, through a fresh
/// extractor and one that has seen `prev` first.
fn check_packet(prev: &Packet, p: &Packet, what: &dyn std::fmt::Display) {
    for dir in [Direction::ClientToServer, Direction::ServerToClient] {
        let mut seen = FeatureExtractor::new();
        seen.push(prev, dir.flip());
        for fv in [FeatureExtractor::new().push(p, dir), seen.push(p, dir)] {
            for rm in ranges() {
                assert_indicators(&rm.packet_features(&fv), what);
            }
        }
    }
}

fn arb_option() -> impl Strategy<Value = TcpOption> {
    prop_oneof![
        any::<u16>().prop_map(TcpOption::Mss),
        (0u8..=20).prop_map(TcpOption::WindowScale),
        Just(TcpOption::SackPermitted),
        prop::collection::vec((any::<u32>(), any::<u32>()), 1..=3).prop_map(TcpOption::Sack),
        (any::<u32>(), any::<u32>())
            .prop_map(|(tsval, tsecr)| TcpOption::Timestamps { tsval, tsecr }),
        any::<[u8; 16]>().prop_map(TcpOption::Md5),
        any::<u16>().prop_map(TcpOption::UserTimeout),
        Just(TcpOption::Nop),
    ]
}

/// A well-formed packet of either IP version and either transport, with
/// arbitrary addresses, ports, numbers, flags, TCP options, IPv4 options
/// or an IPv6 extension header, and payload.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        (any::<[u8; 16]>(), any::<[u8; 16]>()),
        (0u8..4, 1u8..=255, any::<u8>()),
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
        (0u16..=0x1ff, any::<u16>(), any::<u16>()),
        prop::collection::vec(arb_option(), 0..4)
            .prop_filter("TCP options must fit the 40-byte option space", |opts| {
                opts.iter().map(TcpOption::wire_len).sum::<usize>() <= 36
            }),
        prop::collection::vec(any::<u8>(), 0..8),
        prop::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(
            |(
                (src, dst),
                (kind, ttl, tos),
                (sport, dport, seq, ack),
                (flags, window, urgent),
                options,
                ip_options,
                payload,
            )| {
                let mut tcp = TcpHeader::new(sport, dport, seq, ack);
                tcp.flags = TcpFlags(flags);
                tcp.window = window;
                tcp.urgent = urgent;
                tcp.options = options;
                let udp = UdpHeader::new(sport, dport);
                if kind < 2 {
                    let v4 = |a: [u8; 16]| Ipv4Addr::new(a[0], a[1], a[2], a[3]);
                    let mut ip = Ipv4Header::new(v4(src), v4(dst), ttl);
                    ip.tos = tos;
                    ip.options = ip_options;
                    match kind {
                        0 => Packet::new(0.5, ip, tcp, payload),
                        _ => Packet::new_udp(0.5, ip, udp, payload),
                    }
                } else {
                    let mut ip = Ipv6Header::new(Ipv6Addr::from(src), Ipv6Addr::from(dst), ttl);
                    ip.traffic_class = tos;
                    let last = if kind == 2 { 6 } else { 17 };
                    if !ip_options.is_empty() {
                        ip.next_header = net_packet::ipv6::EXT_DEST_OPTS;
                        ip.ext = vec![Ipv6ExtHeader::well_formed(last, 0, ip_options)];
                    }
                    match kind {
                        2 => Packet::new_v6(0.5, ip, tcp, payload),
                        _ => Packet::new_udp6(0.5, ip, udp, payload),
                    }
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary packets, as built and after their wire image has had
    /// bytes overwritten and been parsed back (a corrupted checksum,
    /// length, offset or flag byte), light each indicator as a bit.
    #[test]
    fn indicator_slots_hold_bits_on_arbitrary_packets(
        prev in arb_packet(),
        p in arb_packet(),
        edits in prop::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        check_packet(&prev, &p, &"built packet");
        let mut bytes = p.to_bytes();
        for &(at, byte) in &edits {
            let at = usize::from(at) % bytes.len();
            bytes[at] = byte;
        }
        if let Ok(parsed) = Packet::from_bytes(0.75, &bytes) {
            check_packet(&prev, &parsed, &format_args!("parsed packet after {edits:?}"));
        }
    }
}

/// Every strategy of the registry, applied to benign connections, yields
/// traces whose indicator slots hold bits, packet by packet.
#[test]
fn indicator_slots_hold_bits_on_every_attack_strategy() {
    let benign = traffic_gen::dataset(0x1d1d, 12);
    let mut traces = 0;
    for strategy in dpi_attacks::registry() {
        for attacked in dpi_attacks::build_adversarial_set(strategy, &benign, 0x1d1e) {
            traces += 1;
            for (i, fv) in extract_connection(&attacked.connection).iter().enumerate() {
                for rm in ranges() {
                    let what = format_args!("{} packet {i}", strategy.id);
                    assert_indicators(&rm.packet_features(fv), &what);
                }
            }
        }
    }
    assert!(
        traces > 5 * dpi_attacks::registry().len(),
        "{traces} attacked traces"
    );
}
