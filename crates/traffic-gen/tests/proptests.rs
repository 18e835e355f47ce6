//! Property-based tests for the benign traffic generator: the invariants
//! the rest of the system depends on must hold for *every* seed.

use net_packet::{Direction, TcpFlags};
use proptest::prelude::*;
use tcp_state::{label_connection, TcpState};
use traffic_gen::{generate, TrafficConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every generated connection starts with a client SYN and negotiates
    /// sanely: MSS present on SYNs, window scale on both or neither.
    #[test]
    fn handshake_invariants(seed in 0u64..10_000) {
        let conns = generate(&TrafficConfig::new(seed, 2));
        for conn in &conns {
            let first = &conn.packets[0];
            prop_assert!(first.tcp().flags.contains(TcpFlags::SYN));
            prop_assert!(!first.tcp().flags.contains(TcpFlags::ACK));
            prop_assert_eq!(conn.direction(0), Direction::ClientToServer);
            prop_assert!(first.tcp().mss().is_some(), "SYN must carry MSS");

            // Window scaling is negotiated symmetrically.
            let syn_ws = first.tcp().window_scale().is_some();
            if let Some(synack) = conn.packets.iter().find(|p| {
                p.tcp().flags.contains(TcpFlags::SYN) && p.tcp().flags.contains(TcpFlags::ACK)
            }) {
                prop_assert_eq!(syn_ws, synack.tcp().window_scale().is_some());
            }
        }
    }

    /// Payload segments never exceed the negotiated MSS.
    #[test]
    fn segments_respect_mss(seed in 0u64..10_000) {
        let conns = generate(&TrafficConfig::new(seed, 2));
        for conn in &conns {
            let mss = conn.packets[0].tcp().mss().unwrap() as usize;
            for p in &conn.packets {
                prop_assert!(p.payload.len() <= mss, "payload {} > mss {mss}", p.payload.len());
            }
        }
    }

    /// The reference tracker accepts the trace: handshake completes and
    /// no structural drops occur (benign packets are always well-formed).
    #[test]
    fn tracker_accepts_benign(seed in 0u64..10_000) {
        let conns = generate(&TrafficConfig::new(seed, 2));
        for conn in &conns {
            for p in &conn.packets {
                prop_assert!(tcp_state::TcpTracker::segment_acceptable(p, p.checksums()));
            }
            let labels = label_connection(conn);
            prop_assert!(labels.iter().any(|l| l.state == TcpState::Established));
        }
    }

    /// Orderly teardowns end in TIME_WAIT, aborts in CLOSE, and half-open
    /// traces in a pre-close state — never in NONE.
    #[test]
    fn final_states_are_plausible(seed in 0u64..10_000) {
        let conns = generate(&TrafficConfig::new(seed, 3));
        for conn in &conns {
            let last = label_connection(conn).last().copied().unwrap();
            prop_assert!(last.state != TcpState::None, "trace untrackable");
        }
    }

    /// IP identification fields increment per endpoint (real stacks do),
    /// and TTLs are constant per direction within a connection.
    #[test]
    fn ip_header_discipline(seed in 0u64..10_000) {
        let conns = generate(&TrafficConfig::new(seed, 2));
        for conn in &conns {
            let mut ttl: [Option<u8>; 2] = [None, None];
            for (i, p) in conn.packets.iter().enumerate() {
                let d = conn.direction(i).index();
                match ttl[d] {
                    None => ttl[d] = Some(p.ipv4().ttl),
                    Some(t) => prop_assert_eq!(t, p.ipv4().ttl, "TTL changed mid-flow"),
                }
            }
        }
    }

    /// Distinct connections use distinct 4-tuples (no accidental flow
    /// collisions inside a dataset).
    #[test]
    fn flow_keys_are_unique(seed in 0u64..5_000) {
        let conns = generate(&TrafficConfig::new(seed, 20));
        let mut keys: Vec<_> = conns.iter().map(|c| c.key).collect();
        keys.sort_by_key(|k| (k.client.addr, k.client.port, k.server.addr, k.server.port));
        let n = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), n);
    }
}
