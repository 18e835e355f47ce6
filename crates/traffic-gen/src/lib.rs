//! Synthetic benign TCP/IPv4 traffic, substituting the MAWI archive.
//!
//! The paper trains CLAP on payload-stripped backbone captures (MAWI, Table
//! 4). What the pipeline actually consumes from those captures is the joint
//! evolution of TCP/IP *headers* over benign connections: handshake
//! dynamics, sequence/ack progressions, window and option behaviour, flag
//! sequences and teardown patterns — payloads are stripped and the 4-tuple
//! is excluded from the feature set. This generator reproduces exactly that
//! distribution surface:
//!
//! * three-way handshakes with realistic option negotiation (MSS, window
//!   scale, SACK-permitted, timestamps) and OS-flavoured initial TTLs;
//! * request/response and bulk flow profiles with heavy-tailed
//!   (log-normal) transfer sizes, MSS-limited segmentation and delayed
//!   acks — mean flow length lands near MAWI's ≈14 packets/connection;
//! * benign anomalies that real traces contain: SYN retransmission,
//!   data retransmission, old-duplicate arrival (labelled out-of-window by
//!   the reference tracker, as in the paper's Table 5), keepalive probes,
//!   zero-window stalls, reordering;
//! * teardown mix: orderly FIN (either side first), simultaneous close,
//!   RST abort and half-open truncation.
//!
//! Everything is driven by a seeded RNG so datasets are reproducible.

mod churn;
mod generator;

pub use churn::{churn, ChurnConfig, ChurnStats, ChurnStream};
pub use generator::{ConnectionSketch, FlowProfile, Teardown};

use net_packet::Connection;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Tunable knobs for the generator. Probabilities are per-connection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// RNG seed; same seed ⇒ identical dataset.
    pub seed: u64,
    /// Number of connections to generate.
    pub connections: usize,
    /// Probability that the flow is bulk transfer rather than
    /// request/response.
    pub p_bulk: f64,
    /// Probability of a retransmission event somewhere in the flow.
    pub p_retransmit: f64,
    /// Probability of an old-duplicate (out-of-window) arrival.
    pub p_old_duplicate: f64,
    /// Probability of adjacent-packet reordering.
    pub p_reorder: f64,
    /// Probability that the SYN is retransmitted before the SYN-ACK.
    pub p_syn_retransmit: f64,
    /// Probability of a keepalive probe mid-flow.
    pub p_keepalive: f64,
    /// Probability the connection is truncated without teardown.
    pub p_half_open: f64,
    /// Probability of an RST teardown (client abort).
    pub p_rst_teardown: f64,
    /// Probability of simultaneous close.
    pub p_simultaneous_close: f64,
    /// Probability a connection is rendered over IPv6 (NAT64-style
    /// address mapping). **Default 0.0**: at zero the protocol dice are
    /// never rolled, so existing seeds produce byte-identical datasets.
    pub p_ipv6: f64,
    /// Probability a flow is a UDP exchange instead of a TCP connection.
    /// **Default 0.0**, with the same never-rolled guarantee.
    pub p_udp: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x5eed,
            connections: 1000,
            p_bulk: 0.25,
            p_retransmit: 0.06,
            p_old_duplicate: 0.03,
            p_reorder: 0.04,
            p_syn_retransmit: 0.02,
            p_keepalive: 0.02,
            p_half_open: 0.04,
            p_rst_teardown: 0.10,
            p_simultaneous_close: 0.03,
            p_ipv6: 0.0,
            p_udp: 0.0,
        }
    }
}

impl TrafficConfig {
    /// Convenience constructor with the default probability mix.
    pub fn new(seed: u64, connections: usize) -> Self {
        TrafficConfig {
            seed,
            connections,
            ..TrafficConfig::default()
        }
    }
}

/// Aggregate statistics for a generated (or loaded) dataset — the quantities
/// reported in the paper's Table 4.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    pub connections: usize,
    pub packets: usize,
    pub payload_bytes: usize,
    pub mean_packets_per_connection: f64,
}

impl TrafficStats {
    pub fn of(conns: &[Connection]) -> Self {
        let packets: usize = conns.iter().map(Connection::len).sum();
        let payload_bytes = conns.iter().map(Connection::total_payload).sum();
        TrafficStats {
            connections: conns.len(),
            packets,
            payload_bytes,
            mean_packets_per_connection: if conns.is_empty() {
                0.0
            } else {
                packets as f64 / conns.len() as f64
            },
        }
    }
}

/// Generates a full benign dataset from the configuration.
pub fn generate(config: &TrafficConfig) -> Vec<Connection> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.connections)
        .map(|_| generator::generate_connection(config, &mut rng))
        .collect()
}

/// Shorthand: `n` connections with the default mix and the given seed.
pub fn dataset(seed: u64, n: usize) -> Vec<Connection> {
    generate(&TrafficConfig::new(seed, n))
}

/// `n` connections with a mixed protocol blend — IPv4 and IPv6, TCP and
/// UDP — the protocol-diversity surface added in PR 9. Deterministic in
/// `seed`, like [`dataset`].
pub fn mixed_dataset(seed: u64, n: usize) -> Vec<Connection> {
    let mut cfg = TrafficConfig::new(seed, n);
    cfg.p_ipv6 = 0.35;
    cfg.p_udp = 0.3;
    generate(&cfg)
}

/// Serializes connections into raw capture records `(timestamp, wire
/// bytes)`, interleaved by timestamp — the shape [`net_packet::pcap::write_pcap_raw`]
/// consumes. When `fragment_over` is set, IPv4 datagrams larger than that
/// many wire bytes are split with [`net_packet::fragment_datagram`]; the
/// fragments keep the datagram's capture timestamp plus a sub-microsecond
/// skew so they stay ordered. IPv6 datagrams are never fragmented here
/// (routers cannot fragment v6 in flight).
pub fn capture_records(conns: &[Connection], fragment_over: Option<usize>) -> Vec<(f64, Vec<u8>)> {
    let mut pkts: Vec<&net_packet::Packet> = conns.iter().flat_map(|c| c.packets.iter()).collect();
    pkts.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    let mut records = Vec::with_capacity(pkts.len());
    for p in pkts {
        let bytes = p.to_bytes();
        match fragment_over {
            Some(limit) if p.ip.is_v4() && bytes.len() > limit => {
                let chunk = limit.saturating_sub(p.ip.header_len_bytes()).max(8);
                for (i, f) in net_packet::fragment_datagram(&bytes, chunk)
                    .into_iter()
                    .enumerate()
                {
                    records.push((p.timestamp + i as f64 * 1e-7, f));
                }
            }
            _ => records.push((p.timestamp, bytes)),
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_state::{label_connection, TcpState};

    #[test]
    fn deterministic_for_same_seed() {
        let a = dataset(7, 20);
        let b = dataset(7, 20);
        assert_eq!(a, b);
        let c = dataset(8, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn connections_have_reasonable_sizes() {
        let conns = dataset(1, 200);
        let stats = TrafficStats::of(&conns);
        assert_eq!(stats.connections, 200);
        assert!(
            stats.mean_packets_per_connection >= 6.0,
            "mean too small: {stats:?}"
        );
        assert!(
            stats.mean_packets_per_connection <= 40.0,
            "mean too large: {stats:?}"
        );
        for c in &conns {
            assert!(c.len() >= 3, "connection shorter than a handshake");
            assert!(c.len() <= 600);
        }
    }

    #[test]
    fn most_connections_reach_established() {
        let conns = dataset(2, 300);
        let established = conns
            .iter()
            .filter(|c| {
                label_connection(c)
                    .iter()
                    .any(|l| l.state == TcpState::Established)
            })
            .count();
        assert!(
            established >= 280,
            "only {established}/300 reached ESTABLISHED"
        );
    }

    #[test]
    fn benign_traffic_is_overwhelmingly_in_window() {
        let conns = dataset(3, 300);
        let mut total = 0usize;
        let mut in_win = 0usize;
        for c in &conns {
            for l in label_connection(c) {
                total += 1;
                in_win += usize::from(l.in_window);
            }
        }
        let frac = in_win as f64 / total as f64;
        assert!(frac > 0.97, "in-window fraction {frac:.3} too low");
        // Benign traces still contain *some* out-of-window packets (old
        // duplicates), mirroring Table 5 of the paper.
        assert!(frac < 1.0, "expected a few benign out-of-window packets");
    }

    #[test]
    fn timestamps_are_monotone_per_connection() {
        for c in dataset(4, 100) {
            for w in c.packets.windows(2) {
                assert!(w[1].timestamp >= w[0].timestamp);
            }
        }
    }

    #[test]
    fn packets_carry_valid_checksums() {
        for c in dataset(5, 50) {
            for p in &c.packets {
                assert!(p.ip_checksum_valid());
                assert!(p.transport_checksum_valid());
            }
        }
    }

    /// Pin of the default (all-v4, all-TCP) RNG stream: the mixed-protocol
    /// knobs must not consume a single extra draw when they are zero, so
    /// pre-existing seeds keep producing byte-identical datasets. If this
    /// test breaks, a new knob rolled the dice unconditionally.
    #[test]
    fn protocol_default_stream_is_pinned() {
        let conns = dataset(42, 3);
        let packets: usize = conns.iter().map(Connection::len).sum();
        let payload: usize = conns
            .iter()
            .flat_map(|c| &c.packets)
            .map(|p| p.payload.len())
            .sum();
        assert_eq!(packets, 87);
        assert_eq!(conns[0].packets[0].tcp().seq, 0x36ba_2593);
        assert_eq!(payload, 32_239);
        let last_ts = conns[2].packets.last().unwrap().timestamp;
        assert!((last_ts - 0.634_679_031).abs() < 1e-9, "got {last_ts}");
    }

    #[test]
    fn protocol_mixed_dataset_covers_all_variants() {
        let conns = mixed_dataset(11, 200);
        let v6 = conns.iter().filter(|c| c.key.client.addr.is_ipv6()).count();
        let udp = conns
            .iter()
            .filter(|c| c.key.proto == net_packet::ipv4::PROTO_UDP)
            .count();
        let v6_udp = conns
            .iter()
            .filter(|c| c.key.client.addr.is_ipv6() && c.key.proto == net_packet::ipv4::PROTO_UDP)
            .count();
        assert!(v6 >= 30, "only {v6}/200 v6 flows");
        assert!(udp >= 30, "only {udp}/200 UDP flows");
        assert!(v6_udp >= 5, "only {v6_udp}/200 v6 UDP flows");
        assert!(v6 < 200 && udp < 200, "mix collapsed to one protocol");
        // Every flow is internally consistent regardless of protocol.
        for c in &conns {
            assert!(!c.packets.is_empty());
            for p in &c.packets {
                assert!(p.ip_checksum_valid());
                assert!(p.transport_checksum_valid());
                assert_eq!(p.is_udp(), c.key.proto == net_packet::ipv4::PROTO_UDP);
                assert_eq!(p.src_addr().is_ipv6(), c.key.client.addr.is_ipv6());
            }
        }
        // Determinism holds for the mixed blend too.
        assert_eq!(conns, mixed_dataset(11, 200));
    }

    #[test]
    fn protocol_mixed_wire_round_trip() {
        use net_packet::Packet;
        for c in mixed_dataset(12, 40) {
            for p in &c.packets {
                let q = Packet::from_bytes(p.timestamp, &p.to_bytes()).expect("parses back");
                assert_eq!(&q, p);
            }
        }
    }

    #[test]
    fn protocol_fragmented_capture_records_reassemble() {
        let conns = mixed_dataset(13, 30);
        let records = capture_records(&conns, Some(600));
        let plain = capture_records(&conns, None);
        assert!(records.len() > plain.len(), "nothing got fragmented");
        let mut buf = Vec::new();
        net_packet::pcap::write_pcap_raw(&mut buf, &records).unwrap();
        let back = net_packet::pcap::read_pcap(&buf[..]).unwrap();
        assert_eq!(
            back.len(),
            plain.len(),
            "every fragmented datagram must reassemble to one packet"
        );
        assert!(back.iter().any(|p| p.reassembly.is_some()));
        for p in back.iter().filter(|p| p.reassembly.is_some()) {
            assert!(p.transport_checksum_valid());
        }
    }
}
