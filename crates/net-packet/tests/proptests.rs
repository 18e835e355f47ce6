//! Property-based tests for the wire codecs.

use net_packet::{
    fragment_datagram, wire, Ipv4Header, Ipv6Header, Packet, Reassembler, TcpFlags, TcpHeader,
    TcpOption, UdpHeader,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    (0u16..=0x1ff).prop_map(TcpFlags)
}

fn arb_option() -> impl Strategy<Value = TcpOption> {
    prop_oneof![
        any::<u16>().prop_map(TcpOption::Mss),
        (0u8..=14).prop_map(TcpOption::WindowScale),
        Just(TcpOption::SackPermitted),
        prop::collection::vec((any::<u32>(), any::<u32>()), 1..=3).prop_map(TcpOption::Sack),
        (any::<u32>(), any::<u32>())
            .prop_map(|(tsval, tsecr)| TcpOption::Timestamps { tsval, tsecr }),
        any::<[u8; 16]>().prop_map(TcpOption::Md5),
        any::<u16>().prop_map(TcpOption::UserTimeout),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        arb_flags(),
        any::<u16>(),
        any::<u16>(),
        prop::collection::vec(arb_option(), 0..4)
            .prop_filter("TCP options must fit the 40-byte option space", |opts| {
                opts.iter().map(TcpOption::wire_len).sum::<usize>() <= 36
            }),
        prop::collection::vec(any::<u8>(), 0..64),
        1u8..=255,
    )
        .prop_map(
            |(src, dst, sport, dport, seq, ack, flags, window, urgent, options, payload, ttl)| {
                let ip = Ipv4Header::new(Ipv4Addr::from(src), Ipv4Addr::from(dst), ttl);
                let mut tcp = TcpHeader::new(sport, dport, seq, ack);
                tcp.flags = flags;
                tcp.window = window;
                tcp.urgent = urgent;
                tcp.options = options;
                Packet::new(0.0, ip, tcp, payload)
            },
        )
}

/// A well-formed packet drawn across both IP versions and both transports.
fn arb_mixed_packet() -> impl Strategy<Value = Packet> {
    (
        any::<[u8; 16]>(),
        any::<[u8; 16]>(),
        any::<bool>(),
        any::<bool>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        arb_flags(),
        prop::collection::vec(any::<u8>(), 0..64),
        1u8..=255,
    )
        .prop_map(
            |(src, dst, v6, udp, sport, dport, seq, flags, payload, ttl)| {
                if v6 {
                    let (s, d) = (Ipv6Addr::from(src), Ipv6Addr::from(dst));
                    let ip = Ipv6Header::new(s, d, ttl);
                    if udp {
                        Packet::new_udp6(0.0, ip, UdpHeader::new(sport, dport), payload)
                    } else {
                        let mut tcp = TcpHeader::new(sport, dport, seq, 0);
                        tcp.flags = flags;
                        Packet::new_v6(0.0, ip, tcp, payload)
                    }
                } else {
                    let s = Ipv4Addr::new(src[0], src[1], src[2], src[3]);
                    let d = Ipv4Addr::new(dst[0], dst[1], dst[2], dst[3]);
                    let ip = Ipv4Header::new(s, d, ttl);
                    if udp {
                        Packet::new_udp(0.0, ip, UdpHeader::new(sport, dport), payload)
                    } else {
                        let mut tcp = TcpHeader::new(sport, dport, seq, 0);
                        tcp.flags = flags;
                        Packet::new(0.0, ip, tcp, payload)
                    }
                }
            },
        )
}

proptest! {
    /// Any consistent packet survives serialize → parse unchanged.
    #[test]
    fn round_trip_consistent_packet(p in arb_packet()) {
        let bytes = p.to_bytes();
        let q = Packet::from_bytes(0.0, &bytes).unwrap();
        prop_assert_eq!(&p.ip, &q.ip);
        prop_assert_eq!(p.tcp(), q.tcp());
        prop_assert_eq!(&p.payload, &q.payload);
    }

    /// Any consistent v4/v6 × TCP/UDP packet survives serialize → parse
    /// unchanged, with valid checksums on both sides.
    #[test]
    fn protocol_round_trip_mixed_packet(p in arb_mixed_packet()) {
        prop_assert!(p.ip_checksum_valid());
        prop_assert!(p.transport_checksum_valid());
        let bytes = p.to_bytes();
        let q = Packet::from_bytes(0.0, &bytes).unwrap();
        prop_assert_eq!(&p, &q);
        prop_assert!(q.transport_checksum_valid());
    }

    /// Trailer padding (an Ethernet driver padding short frames) never
    /// leaks into the payload or breaks checksum validation — the PR-9
    /// padding bug, generalized across versions and transports.
    #[test]
    fn protocol_trailer_padding_never_corrupts(
        p in arb_mixed_packet(),
        pad in 1usize..24,
        junk in any::<u8>(),
    ) {
        let mut bytes = p.to_bytes();
        bytes.extend(std::iter::repeat_n(junk, pad));
        let q = Packet::from_bytes(0.0, &bytes).unwrap();
        prop_assert_eq!(&p.payload, &q.payload);
        prop_assert!(q.transport_checksum_valid());
        prop_assert_eq!(q.wire_len(), p.wire_len());
    }

    /// A fragmented v4 datagram reassembles to the original packet
    /// regardless of fragment size.
    #[test]
    fn protocol_fragmentation_reassembles(
        payload in prop::collection::vec(any::<u8>(), 32..256),
        chunk in 8usize..64,
    ) {
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        let mut tcp = TcpHeader::new(40000, 80, 1, 2);
        tcp.flags = TcpFlags::ACK;
        let p = Packet::new(0.0, ip, tcp, payload);
        let frags = fragment_datagram(&p.to_bytes(), chunk);
        let mut r = Reassembler::new();
        let mut done = None;
        for f in &frags {
            done = r.push(0.0, f);
        }
        let q = done.expect("all fragments delivered");
        prop_assert_eq!(&p.payload, &q.payload);
        prop_assert_eq!(p.tcp(), q.tcp());
        prop_assert!(q.transport_checksum_valid());
    }

    /// Corrupting the IHL nibble, total length or data offset of a valid
    /// packet never panics the parser, and whatever parses re-serializes
    /// without panicking.
    #[test]
    fn protocol_corrupt_length_fields_never_panic(
        p in arb_packet(),
        field in 0usize..3,
        value in any::<u8>(),
    ) {
        let mut bytes = p.to_bytes();
        match field {
            0 => bytes[0] = (bytes[0] & 0xf0) | (value & 0x0f), // IHL
            1 => bytes[2] = value,                              // total_length high byte
            _ => bytes[32] = (value & 0xf0) | (bytes[32] & 0x0f), // data offset
        }
        if let Ok(q) = Packet::from_bytes(0.0, &bytes) {
            let _ = q.to_bytes();
        }
    }

    /// Freshly built packets always carry valid checksums and consistent
    /// length fields.
    #[test]
    fn new_packets_are_well_formed(p in arb_packet()) {
        prop_assert!(p.ip_checksum_valid());
        prop_assert!(p.transport_checksum_valid());
        prop_assert!(p.ipv4().ihl_consistent());
        prop_assert!(p.tcp().data_offset_consistent());
        prop_assert_eq!(p.ipv4().total_length as usize, p.wire_len());
    }

    /// Flipping any single byte of the fixed TCP header or the payload
    /// invalidates the TCP checksum. (The option region is excluded: bytes
    /// in end-of-list padding are not semantically part of the header, so a
    /// lenient parse + re-serialize legitimately canonicalizes them away.
    /// The checksum field itself is excluded for the obvious reason.)
    #[test]
    fn checksum_detects_single_byte_corruption(p in arb_packet(), which in 0usize..1000) {
        let ip_len = p.ip.header_len_bytes();
        let tcp_hdr_len = p.tcp().header_len_bytes();
        let seg_len = p.wire_len() - ip_len;
        let mut bytes = p.to_bytes();
        // Candidates: fixed header minus checksum bytes (16..18), plus payload.
        let candidates: Vec<usize> = (0..16)
            .chain(18..20)
            .chain(tcp_hdr_len..seg_len)
            .collect();
        let off = ip_len + candidates[which % candidates.len()];
        bytes[off] ^= 0x5a;
        let q = Packet::from_bytes(0.0, &bytes).unwrap();
        prop_assert!(!q.transport_checksum_valid());
    }

    /// The parser never panics on arbitrary bytes.
    #[test]
    fn parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Packet::from_bytes(0.0, &data);
    }

    /// Neither does the reassembler.
    #[test]
    fn reassembler_never_panics(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 0..8),
    ) {
        let mut r = Reassembler::with_limits(4, 1.0);
        for (i, rec) in records.iter().enumerate() {
            let _ = r.push(i as f64 * 0.7, rec);
        }
    }

    /// Random fragment / duplicate / completion sequences over 12
    /// three-fragment datagrams, on timestamps that creep, stall, jump
    /// past the timeout and run backwards: after every push the
    /// reassembler and a naive list of `(id, last clock)` agree on what
    /// is pending, what the timeout and the capacity bound have dropped
    /// (the stalest first), and which datagram completes, from how many
    /// fragments. Expiry is exact, so the model has no slack term.
    #[test]
    fn reassembler_matches_a_naive_model(
        capacity in 1usize..=8,
        timeout in prop_oneof![Just(0.5f64), Just(5.0), Just(30.0)],
        pushes in prop::collection::vec((0u16..12, 0usize..3, 0u8..20, 0.0f64..1.0), 1..300),
    ) {
        #[derive(Default)]
        struct Pending {
            id: u16,
            last: f64,
            got: [bool; 3],
            fragments: u16,
            overlapped: bool,
        }
        let datagrams: Vec<(Vec<u8>, Vec<Vec<u8>>)> = (0..12u16)
            .map(|id| {
                let mut ip =
                    Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
                ip.identification = id;
                let mut tcp = TcpHeader::new(40000, 80, 1, 2);
                tcp.flags = TcpFlags::ACK;
                let payload: Vec<u8> = (0..44u16).map(|i| (i * 12 + id) as u8).collect();
                let bytes = Packet::new(0.0, ip, tcp, payload.clone()).to_bytes();
                (payload, fragment_datagram(&bytes, 24))
            })
            .collect();
        let mut r = Reassembler::with_limits(capacity, timeout);
        let mut model: Vec<Pending> = Vec::new();
        let (mut expired, mut evicted) = (0u64, 0u64);
        let (mut ts, mut clock) = (1_000.0f64, f64::NEG_INFINITY);
        for (id, frag, pace, x) in pushes {
            ts += match pace {
                0 => timeout * (1.0 + 3.0 * x),
                1 => timeout,
                2..=4 => -timeout * x,
                5..=8 => 0.0,
                _ => timeout * 0.2 * x,
            };
            clock = clock.max(ts);
            let before = model.len();
            model.retain(|d| d.last + timeout > clock);
            expired += (before - model.len()) as u64;
            let mut d = match model.iter().position(|d| d.id == id) {
                Some(at) => model.remove(at),
                None => {
                    while model.len() >= capacity {
                        let stalest = (0..model.len())
                            .min_by(|&a, &b| model[a].last.total_cmp(&model[b].last))
                            .expect("capacity is at least one");
                        model.remove(stalest);
                        evicted += 1;
                    }
                    Pending { id, ..Pending::default() }
                }
            };
            d.last = clock;
            d.fragments += 1;
            d.overlapped |= d.got[frag];
            d.got[frag] = true;
            let (payload, frags) = &datagrams[id as usize];
            prop_assert_eq!(frags.len(), 3);
            let done = r.push(ts, &frags[frag]);
            if d.got == [true; 3] {
                let p = done.expect("the model has every fragment");
                prop_assert_eq!(&p.payload, payload);
                let info = p.reassembly.expect("reassembled");
                prop_assert_eq!((info.fragments, info.overlapped), (d.fragments, d.overlapped));
            } else {
                prop_assert!(done.is_none());
                // Kept in order of last touch, so equally stale datagrams
                // leave in that order.
                model.push(d);
            }
            prop_assert_eq!(r.pending(), model.len());
            prop_assert_eq!((r.expired(), r.evicted()), (expired, evicted));
        }
    }

    /// Arbitrary bytes through the option parser never panic and always
    /// terminate.
    #[test]
    fn option_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..60)) {
        let _ = wire::parse_tcp_options(&data);
    }

    /// The shard hash is symmetric: both directions of any tuple produce
    /// the same canonical key, the same RSS hash and the same shard — the
    /// invariant that lets an RSS-partitioned front end keep each flow on
    /// one worker. Checked across v4/v6 and TCP/UDP.
    #[test]
    fn shard_hash_is_direction_symmetric(
        p in arb_mixed_packet(),
        shards in 1usize..12,
    ) {
        // Build the reverse-direction packet by swapping addresses/ports.
        let rev = {
            let mut q = p.clone();
            match (&mut q.ip, &p.ip) {
                (net_packet::IpHeader::V4(qh), net_packet::IpHeader::V4(ph)) => {
                    qh.src = ph.dst;
                    qh.dst = ph.src;
                }
                (net_packet::IpHeader::V6(qh), net_packet::IpHeader::V6(ph)) => {
                    qh.src = ph.dst;
                    qh.dst = ph.src;
                }
                _ => unreachable!("same packet, same version"),
            }
            match &mut q.transport {
                net_packet::Transport::Tcp(t) => {
                    std::mem::swap(&mut t.src_port, &mut t.dst_port)
                }
                net_packet::Transport::Udp(u) => {
                    std::mem::swap(&mut u.src_port, &mut u.dst_port)
                }
            }
            q
        };
        let (a, b) = (net_packet::CanonicalKey::of(&p), net_packet::CanonicalKey::of(&rev));
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.rss_hash(), b.rss_hash());
        prop_assert_eq!(a.shard_of(shards), b.shard_of(shards));
        prop_assert!(a.shard_of(shards) < shards);
    }

    /// pcap round trip preserves every packet.
    #[test]
    fn pcap_round_trip(pkts in prop::collection::vec(arb_mixed_packet(), 0..8)) {
        let mut buf = Vec::new();
        net_packet::pcap::write_pcap(&mut buf, &pkts).unwrap();
        let back = net_packet::pcap::read_pcap(&buf[..]).unwrap();
        prop_assert_eq!(pkts.len(), back.len());
        for (a, b) in pkts.iter().zip(&back) {
            prop_assert_eq!(&a.ip, &b.ip);
            prop_assert_eq!(&a.transport, &b.transport);
            prop_assert_eq!(&a.payload, &b.payload);
        }
    }
}
