//! Flow reassembly: grouping a raw packet stream (e.g. a pcap capture)
//! into [`Connection`]s by flow tuple.
//!
//! This is what turns `pcap::read_pcap` output into CLAP's unit of
//! analysis. Orientation follows the first packet seen for a tuple, unless
//! a later pure SYN identifies the true initiator (captures often start
//! mid-connection).

use crate::{Connection, Endpoint, FlowKey, Packet, TcpFlags};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

/// Canonical (order-independent) form of a flow 5-tuple for hashing: both
/// directions of a flow map to the same key. This is the lookup key of
/// both the offline reassembler below and the streaming per-flow tables
/// in `clap-core`. v4 addresses live in the low 32 bits of the `u128`
/// slots; the `v6` discriminant keeps `::a.b.c.d` v6 flows distinct from
/// the v4 flows they would otherwise alias.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct CanonicalKey {
    v6: bool,
    proto: u8,
    lo: (u128, u16),
    hi: (u128, u16),
}

/// One `write` of the key's 40 packed bytes — both addresses, both ports,
/// the protocol and the `v6` flag at fixed offsets, so distinct keys
/// write distinct bytes — where a derive would make six.
impl Hash for CanonicalKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut bytes = [0u8; 40];
        bytes[..16].copy_from_slice(&self.lo.0.to_le_bytes());
        bytes[16..32].copy_from_slice(&self.hi.0.to_le_bytes());
        bytes[32..34].copy_from_slice(&self.lo.1.to_le_bytes());
        bytes[34..36].copy_from_slice(&self.hi.1.to_le_bytes());
        bytes[36] = self.proto;
        bytes[37] = u8::from(self.v6);
        state.write(&bytes);
    }
}

/// The Microsoft reference RSS hash key (the NDIS verification-suite
/// secret). Any fixed key works for load spreading; using the canonical
/// one lets the Toeplitz core be validated against the published test
/// vectors, so [`CanonicalKey::rss_hash`] can be pinned forever.
const RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// [`RSS_KEY`] extended by cyclic repetition so inputs longer than 32
/// bytes (the v6 tuple is 37) always have a full 8-byte key window.
/// `RSS_KEY_EXT[..40] == RSS_KEY`, so hashes of inputs up to 32 bytes —
/// including the published NDIS verification vectors — are unchanged.
const RSS_KEY_EXT: [u8; 64] = {
    let mut k = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        k[i] = RSS_KEY[i % 40];
        i += 1;
    }
    k
};

/// Toeplitz hash of `data` under [`RSS_KEY`] — the exact function RSS
/// NICs evaluate in hardware. For each set bit `p` of the input, XORs the
/// 32-bit window of the key starting at bit `p`.
fn toeplitz(data: &[u8]) -> u32 {
    let mut hash = 0u32;
    for (i, &byte) in data.iter().enumerate() {
        // Key bits [8i, 8i+64): covers every 32-bit window this byte needs.
        let w = u64::from_be_bytes(RSS_KEY_EXT[i..i + 8].try_into().expect("8-byte window"));
        for b in 0..8 {
            if byte & (0x80 >> b) != 0 {
                hash ^= (w >> (32 - b)) as u32;
            }
        }
    }
    hash
}

fn addr_bits(a: IpAddr) -> u128 {
    match a {
        IpAddr::V4(v) => u128::from(u32::from(v)),
        IpAddr::V6(v) => u128::from(v),
    }
}

impl CanonicalKey {
    fn of_parts(src: (IpAddr, u16), dst: (IpAddr, u16), proto: u8) -> CanonicalKey {
        let v6 = src.0.is_ipv6() || dst.0.is_ipv6();
        let a = (addr_bits(src.0), src.1);
        let b = (addr_bits(dst.0), dst.1);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        CanonicalKey { v6, proto, lo, hi }
    }

    /// Canonical key of a packet's 5-tuple. The protocol discriminant is
    /// the structural transport (6/17), not the corruptible IP protocol
    /// field, so a flow's packets land in one table entry even when an
    /// attack lies in the header.
    pub fn of(p: &Packet) -> CanonicalKey {
        Self::of_parts(
            (p.src_addr(), p.src_port()),
            (p.dst_addr(), p.dst_port()),
            p.transport.protocol_number(),
        )
    }

    /// Canonical key of an oriented [`FlowKey`] — the same key either
    /// direction's packets would produce, so flow-table entries can be
    /// looked up from a finalized connection's identity.
    pub fn of_key(k: &FlowKey) -> CanonicalKey {
        Self::of_parts(
            (k.client.addr, k.client.port),
            (k.server.addr, k.server.port),
            k.proto,
        )
    }

    /// Symmetric RSS hash of the 5-tuple: the standard Toeplitz function
    /// (Microsoft key) over the tuple in **canonical order**
    /// (`lo.ip ‖ hi.ip ‖ lo.port ‖ hi.port ‖ proto` — 13 bytes for v4,
    /// 37 for v6). Because the input is order-normalized, both directions
    /// of a flow hash identically — the property an RSS-sharded ingest
    /// front end needs so one worker owns a whole flow. The value is part
    /// of the stable API (sharded replay determinism depends on it) and is
    /// pinned by unit tests against a fixed table of known keys.
    pub fn rss_hash(&self) -> u32 {
        let mut data = [0u8; 37];
        let n = if self.v6 {
            data[0..16].copy_from_slice(&self.lo.0.to_be_bytes());
            data[16..32].copy_from_slice(&self.hi.0.to_be_bytes());
            data[32..34].copy_from_slice(&self.lo.1.to_be_bytes());
            data[34..36].copy_from_slice(&self.hi.1.to_be_bytes());
            data[36] = self.proto;
            37
        } else {
            data[0..4].copy_from_slice(&(self.lo.0 as u32).to_be_bytes());
            data[4..8].copy_from_slice(&(self.hi.0 as u32).to_be_bytes());
            data[8..10].copy_from_slice(&self.lo.1.to_be_bytes());
            data[10..12].copy_from_slice(&self.hi.1.to_be_bytes());
            data[12] = self.proto;
            13
        };
        toeplitz(&data[..n])
    }

    /// Shard index for an `shards`-way partition: fixed-point range
    /// reduction of [`rss_hash`](Self::rss_hash) (`hash * shards >> 32`),
    /// which spreads the full 32-bit hash instead of only its low bits.
    pub fn shard_of(&self, shards: usize) -> usize {
        ((u64::from(self.rss_hash()) * shards as u64) >> 32) as usize
    }
}

/// Groups packets into connections by flow 5-tuple, preserving capture
/// order within each flow.
///
/// * The connection's client/server orientation is taken from the first
///   pure SYN if one exists (TCP), else from the first packet of the flow.
/// * Connections are returned in order of first appearance.
pub fn assemble_connections(packets: &[Packet]) -> Vec<Connection> {
    let mut index: HashMap<CanonicalKey, usize> = HashMap::new();
    let mut flows: Vec<(Vec<Packet>, Option<FlowKey>)> = Vec::new();

    for p in packets {
        let ck = CanonicalKey::of(p);
        let slot = *index.entry(ck).or_insert_with(|| {
            flows.push((Vec::new(), None));
            flows.len() - 1
        });
        let (pkts, key) = &mut flows[slot];
        // A pure SYN pins the initiator regardless of capture order.
        let is_pure_syn =
            p.tcp_flags().contains(TcpFlags::SYN) && !p.tcp_flags().contains(TcpFlags::ACK);
        let this_key = FlowKey::new(
            Endpoint::new(p.src_addr(), p.src_port()),
            Endpoint::new(p.dst_addr(), p.dst_port()),
        )
        .with_proto(p.transport.protocol_number());
        match key {
            None => *key = Some(this_key),
            Some(k) if is_pure_syn && k.client != this_key.client => {
                // Reorient: the SYN sender is the real client.
                *k = this_key;
            }
            _ => {}
        }
        pkts.push(p.clone());
    }

    flows
        .into_iter()
        .map(|(packets, key)| Connection {
            key: key.expect("every flow has at least one packet"),
            packets,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipv4Header, Ipv6Header, TcpHeader, UdpHeader};
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn pkt(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), flags: TcpFlags, ts: f64) -> Packet {
        let ip = Ipv4Header::new(src.0, dst.0, 64);
        let mut tcp = TcpHeader::new(src.1, dst.1, 100, 0);
        tcp.flags = flags;
        Packet::new(ts, ip, tcp, Vec::new())
    }

    /// One pinned hash case: two endpoints and the expected 32-bit hash.
    type PinnedVector = ((Ipv4Addr, u16), (Ipv4Addr, u16), u32);

    const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);
    const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 443);
    const C: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 3), 80);

    #[test]
    fn groups_by_tuple_bidirectionally() {
        let packets = vec![
            pkt(A, B, TcpFlags::SYN, 0.0),
            pkt(A, C, TcpFlags::SYN, 0.1),
            pkt(B, A, TcpFlags::SYN | TcpFlags::ACK, 0.2),
            pkt(A, B, TcpFlags::ACK, 0.3),
            pkt(C, A, TcpFlags::SYN | TcpFlags::ACK, 0.4),
        ];
        let conns = assemble_connections(&packets);
        assert_eq!(conns.len(), 2);
        assert_eq!(conns[0].len(), 3); // A<->B
        assert_eq!(conns[1].len(), 2); // A<->C
        assert_eq!(conns[0].key.client.port, 40000);
        assert_eq!(conns[0].key.server.port, 443);
    }

    #[test]
    fn syn_reorients_mid_capture_flows() {
        // Capture starts with a server->client data packet; the later SYN
        // (connection reuse) re-pins the initiator.
        let packets = vec![
            pkt(B, A, TcpFlags::ACK | TcpFlags::PSH, 0.0),
            pkt(A, B, TcpFlags::ACK, 0.1),
            pkt(A, B, TcpFlags::SYN, 5.0),
        ];
        let conns = assemble_connections(&packets);
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].key.client.port, 40000, "SYN sender becomes client");
    }

    /// The key's `Hash`, under a fixed-key hasher: both directions of a
    /// 4-tuple hash alike, and changing any one field — the `v6` flag (a
    /// v4 `a.b.c.d` pair against the v6 `::a.b.c.d` pair it would
    /// otherwise alias), the protocol, either port or either address —
    /// changes the hash.
    #[test]
    fn key_hash_is_symmetric_and_sees_every_field() {
        use std::hash::DefaultHasher;
        let hash = |k: &CanonicalKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        let (a, b) = ((IpAddr::V4(A.0), A.1), (IpAddr::V4(B.0), B.1));
        let key = CanonicalKey::of_parts(a, b, 6);
        assert_eq!(key, CanonicalKey::of_parts(b, a, 6));
        assert_eq!(hash(&key), hash(&CanonicalKey::of_parts(b, a, 6)));
        let mapped = |(ip, port): (IpAddr, u16)| (IpAddr::V6(Ipv6Addr::from(addr_bits(ip))), port);
        let v6 = CanonicalKey::of_parts(mapped(a), mapped(b), 6);
        assert_eq!((v6.v6, v6.proto, v6.lo, v6.hi), (true, 6, key.lo, key.hi));
        let with = |lo, hi, proto| CanonicalKey {
            lo,
            hi,
            proto,
            ..key
        };
        let (lo, hi) = (key.lo, key.hi);
        let variants = [
            ("v6", v6),
            ("proto", with(lo, hi, 17)),
            ("lo port", with((lo.0, lo.1 ^ 1), hi, 6)),
            ("hi port", with(lo, (hi.0, hi.1 ^ 1), 6)),
            ("lo address", with((lo.0 ^ 1 << 100, lo.1), hi, 6)),
            ("hi address", with(lo, (hi.0 ^ 1, hi.1), 6)),
        ];
        for (field, other) in variants {
            assert_ne!(other, key, "{field}");
            assert_ne!(hash(&other), hash(&key), "{field}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(assemble_connections(&[]).is_empty());
    }

    /// TCP and UDP on the same address/port pair are distinct flows, and
    /// v6 flows group bidirectionally like v4 ones.
    #[test]
    fn protocol_separates_flows_and_groups_v6() {
        let sa = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
        let sb = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
        let tcp_fwd = pkt(A, B, TcpFlags::ACK, 0.0);
        let udp_fwd = Packet::new_udp(
            0.1,
            Ipv4Header::new(A.0, B.0, 64),
            UdpHeader::new(A.1, B.1),
            vec![1],
        );
        let v6_fwd = Packet::new_v6(
            0.2,
            Ipv6Header::new(sa, sb, 64),
            TcpHeader::new(A.1, B.1, 1, 0),
            Vec::new(),
        );
        let v6_rev = Packet::new_v6(
            0.3,
            Ipv6Header::new(sb, sa, 64),
            TcpHeader::new(B.1, A.1, 1, 0),
            Vec::new(),
        );
        assert_ne!(
            CanonicalKey::of(&tcp_fwd),
            CanonicalKey::of(&udp_fwd),
            "same tuple, different protocol"
        );
        assert_ne!(
            CanonicalKey::of(&tcp_fwd),
            CanonicalKey::of(&v6_fwd),
            "v4 and v6 flows never collide"
        );
        assert_eq!(CanonicalKey::of(&v6_fwd), CanonicalKey::of(&v6_rev));
        assert_eq!(
            CanonicalKey::of(&v6_fwd).rss_hash(),
            CanonicalKey::of(&v6_rev).rss_hash()
        );
        let conns = assemble_connections(&[tcp_fwd, udp_fwd, v6_fwd, v6_rev]);
        assert_eq!(conns.len(), 3);
        assert_eq!(conns[2].len(), 2, "both v6 directions in one flow");
    }

    /// The Toeplitz core reproduces the published NDIS RSS verification
    /// vectors (source ‖ destination ‖ source port ‖ destination port,
    /// Microsoft key, IPv4 with ports). If this fails, the hash function
    /// itself — not just its canonical wrapper — has changed.
    #[test]
    fn toeplitz_matches_ndis_verification_suite() {
        let vectors: [PinnedVector; 5] = [
            (
                (Ipv4Addr::new(66, 9, 149, 187), 2794),
                (Ipv4Addr::new(161, 142, 100, 80), 1766),
                0x51cc_c178,
            ),
            (
                (Ipv4Addr::new(199, 92, 111, 2), 14230),
                (Ipv4Addr::new(65, 69, 140, 83), 4739),
                0xc626_b0ea,
            ),
            (
                (Ipv4Addr::new(24, 19, 198, 95), 12898),
                (Ipv4Addr::new(12, 22, 207, 184), 38024),
                0x5c2b_394a,
            ),
            (
                (Ipv4Addr::new(38, 27, 205, 30), 48228),
                (Ipv4Addr::new(209, 142, 163, 6), 2217),
                0xafc7_327f,
            ),
            (
                (Ipv4Addr::new(153, 39, 163, 191), 44251),
                (Ipv4Addr::new(202, 188, 127, 2), 1303),
                0x10e8_28a2,
            ),
        ];
        for ((src, sport), (dst, dport), expect) in vectors {
            let mut data = [0u8; 12];
            data[0..4].copy_from_slice(&src.octets());
            data[4..8].copy_from_slice(&dst.octets());
            data[8..10].copy_from_slice(&sport.to_be_bytes());
            data[10..12].copy_from_slice(&dport.to_be_bytes());
            assert_eq!(
                toeplitz(&data),
                expect,
                "NDIS vector {src}:{sport} -> {dst}:{dport}"
            );
        }
    }

    /// The canonical (symmetric) hash values are pinned so they can never
    /// silently change across releases — sharded pcap replay determinism
    /// and any persisted shard assignment depend on these exact values.
    ///
    /// The values were recomputed once, deliberately, when the protocol
    /// byte joined the hash input (PR 9: the canonical tuple grew from
    /// 12 to 13 bytes, so every symmetric hash changed). The Toeplitz
    /// core itself is unchanged — see
    /// [`toeplitz_matches_ndis_verification_suite`].
    #[test]
    fn canonical_rss_hash_is_pinned() {
        let keys: [PinnedVector; 5] = [
            (
                (Ipv4Addr::new(66, 9, 149, 187), 2794),
                (Ipv4Addr::new(161, 142, 100, 80), 1766),
                0xcd5e_db56,
            ),
            (
                (Ipv4Addr::new(199, 92, 111, 2), 14230),
                (Ipv4Addr::new(65, 69, 140, 83), 4739),
                0x79ae_6ec6,
            ),
            (
                (Ipv4Addr::new(24, 19, 198, 95), 12898),
                (Ipv4Addr::new(12, 22, 207, 184), 38024),
                0x3490_a267,
            ),
            (
                (Ipv4Addr::new(38, 27, 205, 30), 48228),
                (Ipv4Addr::new(209, 142, 163, 6), 2217),
                0x3355_2851,
            ),
            (
                (Ipv4Addr::new(153, 39, 163, 191), 44251),
                (Ipv4Addr::new(202, 188, 127, 2), 1303),
                0x8c7a_328c,
            ),
        ];
        for ((ca, cp), (sa, sp), expect) in keys {
            let fwd = pkt((ca, cp), (sa, sp), TcpFlags::SYN, 0.0);
            let rev = pkt((sa, sp), (ca, cp), TcpFlags::ACK, 0.1);
            assert_eq!(CanonicalKey::of(&fwd).rss_hash(), expect, "{ca}:{cp}");
            assert_eq!(
                CanonicalKey::of(&rev).rss_hash(),
                expect,
                "reverse direction must hash identically"
            );
            let key = FlowKey::new(Endpoint::new(ca, cp), Endpoint::new(sa, sp));
            assert_eq!(CanonicalKey::of_key(&key), CanonicalKey::of(&fwd));
        }
    }

    #[test]
    fn shard_of_is_in_range_and_total() {
        let p = pkt(A, B, TcpFlags::SYN, 0.0);
        let ck = CanonicalKey::of(&p);
        for shards in 1..=16 {
            assert!(ck.shard_of(shards) < shards);
        }
        assert_eq!(ck.shard_of(1), 0, "single shard owns everything");
    }

    #[test]
    fn round_trips_generated_traffic() {
        // Flatten a generated dataset into one interleaved capture, then
        // reassemble: same connections, same packet counts, same labels.
        let conns: Vec<Connection> = {
            // Avoid a dev-dependency cycle: build two tiny flows by hand.
            let packets = vec![
                pkt(A, B, TcpFlags::SYN, 0.0),
                pkt(A, C, TcpFlags::SYN, 0.01),
                pkt(B, A, TcpFlags::SYN | TcpFlags::ACK, 0.02),
                pkt(C, A, TcpFlags::SYN | TcpFlags::ACK, 0.03),
                pkt(A, B, TcpFlags::ACK, 0.04),
                pkt(A, C, TcpFlags::ACK, 0.05),
            ];
            assemble_connections(&packets)
        };
        assert_eq!(conns.len(), 2);
        assert!(conns.iter().all(|c| c.len() == 3));
        assert!(conns
            .iter()
            .all(|c| c.first_index_after_handshake() == Some(3)));
    }
}
