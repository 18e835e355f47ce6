//! Strategy mechanics: where and how adversarial packets enter a trace.

use crate::corruption::{Corruption, SeqContext};
use net_packet::{Connection, Direction, Packet, TcpFlags, TcpHeader};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which research effort a strategy was published in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackSource {
    /// SymTCP (Wang et al., NDSS '20) — symbolic-execution-discovered
    /// discrepancies against Zeek, Snort and the GFW; paper reference \[23\].
    SymTcp,
    /// Liberate (Li et al., IMC '17) — evasion of traffic classifiers;
    /// paper reference \[10\], with `(Min)`/`(Max)` matching-packet variants.
    Liberate,
    /// Geneva (Bock et al., CCS '19) — genetically evolved strategies with
    /// up to two stacked modifications; paper reference \[4\].
    Geneva,
    /// Protocol-diversity families added by this reproduction, beyond the
    /// paper's IPv4/TCP catalogue: IPv6 extension-header corruption, UDP
    /// length/checksum games and overlapping-fragment evasion.
    Extended,
}

impl AttackSource {
    pub fn name(self) -> &'static str {
        match self {
            AttackSource::SymTcp => "SymTCP [23]",
            AttackSource::Liberate => "Liberate [10]",
            AttackSource::Geneva => "Geneva [4]",
            AttackSource::Extended => "Extended (this work)",
        }
    }

    /// True for the three sources catalogued by the paper (the 73-strategy
    /// Table 8 set); `Extended` strategies are excluded from paper-pinned
    /// counts.
    pub fn in_paper(self) -> bool {
        !matches!(self, AttackSource::Extended)
    }
}

/// Which packet context a strategy primarily violates (paper Table 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContextCategory {
    InterPacket,
    IntraPacket,
}

/// Where an injected segment is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectionPoint {
    /// Right after the three-way handshake completes (most SymTCP
    /// injections; the paper's Bad-Checksum-RST example).
    AfterHandshake,
    /// Between the SYN-ACK and the client's final ACK — the `SYN_RECV`
    /// window the RST-with-bad-timestamp strategies target (§4.3).
    DuringSynRecv,
    /// Immediately before the first data packet.
    BeforeFirstData,
}

/// How many shadow packets a shadow-insertion strategy produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShadowCount {
    /// Liberate `(Min)`: a single matching packet needs cloaking.
    One,
    /// Liberate `(Max)`: five matching packets (the paper's upper case).
    Five,
    /// Geneva: every data packet is shadowed.
    All,
}

impl ShadowCount {
    fn limit(self) -> usize {
        match self {
            ShadowCount::One => 1,
            ShadowCount::Five => 5,
            ShadowCount::All => usize::MAX,
        }
    }
}

/// The placement policy + crafted-segment shape of a strategy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mechanic {
    /// Inject one crafted TCP segment from the client side.
    Inject {
        point: InjectionPoint,
        flags: TcpFlags,
        /// Payload bytes carried by the injected segment.
        payload: usize,
        corruptions: Vec<Corruption>,
    },
    /// Modify the original SYN in place (SymTCP's SYN-with-payload family).
    ModifySyn {
        payload: usize,
        corruptions: Vec<Corruption>,
    },
    /// Insert corrupted *shadow copies* in front of data packets
    /// (Liberate/Geneva insertion strategies; §4.3 "shadow packets").
    ShadowData {
        count: ShadowCount,
        corruptions: Vec<Corruption>,
    },
    /// Insert a crafted RST in front of data packets (Liberate's
    /// RST-with-low-TTL family). `with_ack` distinguishes the #1/#2
    /// variants.
    ShadowRst {
        count: ShadowCount,
        with_ack: bool,
        corruptions: Vec<Corruption>,
    },
    /// IPv6-only: shadow data packets with copies whose extension-header
    /// chain is malformed (misplaced Hop-by-Hop or a lying `hdr_ext_len`).
    /// A conformant endhost drops the shadow; a DPI that skips the chain
    /// check desynchronizes.
    ShadowExtHeader { count: ShadowCount },
    /// UDP-only: shadow datagrams with copies playing a header game — a
    /// lying `udp.length` or a garbled checksum (chosen per shadow) — that
    /// endhosts discard but length-blind DPI consumes.
    ShadowUdpGame { count: ShadowCount },
    /// IPv4/TCP-only: deliver a data packet as overlapping fragments whose
    /// shared bytes disagree. The endhost reassembly policy (first-received
    /// wins here) yields the genuine payload, but the conflict itself is
    /// recorded in [`net_packet::ReassemblyInfo`] — a DPI reassembling with
    /// the opposite policy reads attacker-chosen bytes.
    FragOverlap,
}

/// Output of applying a strategy: the attacked trace and ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackResult {
    pub connection: Connection,
    /// Packet indices (into `connection.packets`) that are adversarial.
    pub adversarial_indices: Vec<usize>,
    /// Strategy id that produced this trace.
    pub strategy_id: &'static str,
}

/// Extracts the IPv4 address of a guarded-v4 flow endpoint.
pub(crate) fn v4(addr: std::net::IpAddr) -> std::net::Ipv4Addr {
    match addr {
        std::net::IpAddr::V4(a) => a,
        std::net::IpAddr::V6(a) => unreachable!("v4-guarded strategy saw v6 address {a}"),
    }
}

/// Sequence-space snapshot just before packet index `at`.
pub(crate) fn seq_context_at(conn: &Connection, at: usize) -> SeqContext {
    let mut isn: Option<u32> = None;
    let mut snd_nxt: u32 = 0;
    let mut last_tsval: Option<u32> = None;
    for (i, p) in conn.packets.iter().take(at).enumerate() {
        if conn.direction(i) != Direction::ClientToServer {
            continue;
        }
        if isn.is_none() {
            isn = Some(p.tcp().seq);
            snd_nxt = p.tcp().seq;
        }
        let end = p.tcp().seq.wrapping_add(p.seq_len());
        if (end.wrapping_sub(snd_nxt) as i32) > 0 {
            snd_nxt = end;
        }
        if let Some((tsval, _)) = p.tcp().timestamps() {
            last_tsval = Some(tsval);
        }
    }
    SeqContext {
        isn: isn.unwrap_or(0),
        snd_nxt,
        last_tsval,
    }
}

/// Latest server-side sequence state before index `at` (for plausible ACK
/// numbers on injected client packets), plus the server's latest timestamp
/// value (for a plausible TSecr echo).
fn server_next_seq(conn: &Connection, at: usize) -> u32 {
    server_state(conn, at).0
}

fn server_state(conn: &Connection, at: usize) -> (u32, u32) {
    let mut next: u32 = 0;
    let mut seen = false;
    let mut tsval: u32 = 0;
    for (i, p) in conn.packets.iter().take(at).enumerate() {
        if conn.direction(i) != Direction::ServerToClient {
            continue;
        }
        let end = p.tcp().seq.wrapping_add(p.seq_len());
        if !seen || (end.wrapping_sub(next) as i32) > 0 {
            next = end;
            seen = true;
        }
        if let Some((v, _)) = p.tcp().timestamps() {
            tsval = v;
        }
    }
    (next, tsval)
}

/// Crafts a baseline, fully-consistent client-side segment for insertion at
/// index `at`: plausible seq/ack, TTL copied from real client packets, and
/// a timestamp option if the connection negotiated one.
pub(crate) fn craft_client_segment(
    conn: &Connection,
    at: usize,
    flags: TcpFlags,
    payload_len: usize,
) -> Packet {
    let key = conn.key;
    let template_ttl = conn
        .packets
        .iter()
        .enumerate()
        .find(|(i, _)| conn.direction(*i) == Direction::ClientToServer)
        .map(|(_, p)| p.ipv4().ttl)
        .unwrap_or(64);
    let ctx = seq_context_at(conn, at);
    let ack = server_next_seq(conn, at);

    let ts = timestamp_between(conn, at);
    let mut ip =
        net_packet::Ipv4Header::new(v4(key.client.addr), v4(key.server.addr), template_ttl);
    ip.identification = 0x7e57;
    let mut tcp = TcpHeader::new(key.client.port, key.server.port, ctx.snd_nxt, 0);
    tcp.flags = flags;
    if flags.contains(TcpFlags::ACK) {
        tcp.ack = ack;
    }
    if let Some(tsval) = ctx.last_tsval {
        let (_, server_tsval) = server_state(conn, at);
        tcp.options.push(net_packet::TcpOption::Timestamps {
            tsval: tsval.wrapping_add(1),
            tsecr: server_tsval,
        });
    }
    let payload = vec![0x45u8; payload_len];
    Packet::new(ts, ip, tcp, payload)
}

/// Capture timestamp halfway between the packets around insertion point.
fn timestamp_between(conn: &Connection, at: usize) -> f64 {
    let prev = at.checked_sub(1).map(|i| conn.packets[i].timestamp);
    let next = conn.packets.get(at).map(|p| p.timestamp);
    match (prev, next) {
        (Some(a), Some(b)) => (a + b) / 2.0,
        (Some(a), None) => a + 0.0005,
        (None, Some(b)) => (b - 0.0005).max(0.0),
        (None, None) => 0.0,
    }
}

/// Data-packet indices a shadow strategy targets: the first `count`
/// client-to-server data packets, falling back to any-direction data
/// packets for pure-download flows.
fn shadow_targets(conn: &Connection, count: ShadowCount) -> Vec<usize> {
    let targets: Vec<usize> = conn
        .data_packet_indices()
        .into_iter()
        .filter(|&i| conn.direction(i) == Direction::ClientToServer)
        .take(count.limit())
        .collect();
    if targets.is_empty() {
        conn.data_packet_indices()
            .into_iter()
            .take(count.limit())
            .collect()
    } else {
        targets
    }
}

/// Resolves an [`InjectionPoint`] to a packet index, or `None` when the
/// trace lacks the required state.
fn resolve_point(conn: &Connection, point: InjectionPoint) -> Option<usize> {
    match point {
        InjectionPoint::AfterHandshake => conn.first_index_after_handshake(),
        InjectionPoint::DuringSynRecv => {
            // After the SYN-ACK, before the client's completing ACK.
            conn.packets.iter().enumerate().find_map(|(i, p)| {
                (p.tcp().flags.contains(TcpFlags::SYN) && p.tcp().flags.contains(TcpFlags::ACK))
                    .then_some(i + 1)
            })
        }
        InjectionPoint::BeforeFirstData => conn.data_packet_indices().first().copied(),
    }
}

impl Mechanic {
    /// Applies the mechanic; `None` when the connection lacks the
    /// structure the strategy requires.
    pub fn apply(
        &self,
        conn: &Connection,
        strategy_id: &'static str,
        rng: &mut StdRng,
    ) -> Option<AttackResult> {
        // The legacy (paper-catalogued) mechanics craft IPv4 TCP segments;
        // they do not apply to v6 or UDP flows.
        if matches!(
            self,
            Mechanic::Inject { .. }
                | Mechanic::ModifySyn { .. }
                | Mechanic::ShadowData { .. }
                | Mechanic::ShadowRst { .. }
        ) && (conn.key.proto != net_packet::ipv4::PROTO_TCP
            || !conn.key.client.addr.is_ipv4()
            || !conn.key.server.addr.is_ipv4())
        {
            return None;
        }
        match self {
            Mechanic::Inject {
                point,
                flags,
                payload,
                corruptions,
            } => {
                let at = resolve_point(conn, *point)?;
                let mut out = conn.clone();
                let mut pkt = craft_client_segment(conn, at, *flags, *payload);
                let ctx = seq_context_at(conn, at);
                Corruption::apply_all(corruptions, &mut pkt, &ctx, rng);
                out.packets.insert(at.min(out.packets.len()), pkt);
                Some(AttackResult {
                    connection: out,
                    adversarial_indices: vec![at.min(conn.len())],
                    strategy_id,
                })
            }
            Mechanic::ModifySyn {
                payload,
                corruptions,
            } => {
                // Locate the client SYN.
                let idx = conn.packets.iter().enumerate().find_map(|(i, p)| {
                    (p.tcp().flags.contains(TcpFlags::SYN)
                        && !p.tcp().flags.contains(TcpFlags::ACK)
                        && conn.direction(i) == Direction::ClientToServer)
                        .then_some(i)
                })?;
                let mut out = conn.clone();
                let orig = &conn.packets[idx];
                let mut pkt = Packet::new(
                    orig.timestamp,
                    orig.ipv4().clone(),
                    orig.tcp().clone(),
                    vec![0x45u8; *payload],
                );
                let ctx = seq_context_at(conn, idx + 1);
                Corruption::apply_all(corruptions, &mut pkt, &ctx, rng);
                out.packets[idx] = pkt;
                Some(AttackResult {
                    connection: out,
                    adversarial_indices: vec![idx],
                    strategy_id,
                })
            }
            Mechanic::ShadowData { count, corruptions } => {
                self.shadow(conn, strategy_id, rng, *count, corruptions, None)
            }
            Mechanic::ShadowRst {
                count,
                with_ack,
                corruptions,
            } => {
                let flags = if *with_ack {
                    TcpFlags::RST | TcpFlags::ACK
                } else {
                    TcpFlags::RST
                };
                self.shadow(conn, strategy_id, rng, *count, corruptions, Some(flags))
            }
            Mechanic::ShadowExtHeader { count } => {
                if conn.key.proto != net_packet::ipv4::PROTO_TCP || !conn.key.client.addr.is_ipv6()
                {
                    return None;
                }
                Self::shadow_with(conn, strategy_id, *count, rng, |p, i, rng| {
                    let mut ip = p.ip.v6()?.clone();
                    if rng.gen_bool(0.5) {
                        // A single Destination Options header whose length
                        // octet claims 48 bytes while 8 are stored.
                        let mut ext = net_packet::Ipv6ExtHeader::well_formed(0, 0, Vec::new());
                        ext.hdr_ext_len = 5;
                        ip.next_header = net_packet::ipv6::EXT_DEST_OPTS;
                        ip.ext = vec![ext];
                    } else {
                        // Hop-by-Hop in second position — RFC 8200 requires
                        // it first.
                        ip.next_header = net_packet::ipv6::EXT_DEST_OPTS;
                        ip.ext = vec![
                            net_packet::Ipv6ExtHeader::well_formed(
                                net_packet::ipv6::EXT_HOP_BY_HOP,
                                0,
                                Vec::new(),
                            ),
                            net_packet::Ipv6ExtHeader::well_formed(0, 0, Vec::new()),
                        ];
                    }
                    Some(Packet::new_v6(i, ip, p.tcp().clone(), p.payload.clone()))
                })
            }
            Mechanic::ShadowUdpGame { count } => {
                if conn.key.proto != net_packet::ipv4::PROTO_UDP {
                    return None;
                }
                Self::shadow_with(conn, strategy_id, *count, rng, |p, i, rng| {
                    let mut s = p.clone();
                    s.timestamp = i;
                    if rng.gen_bool(0.5) {
                        // Lying length: claim fewer bytes than the datagram
                        // actually carries (clamped above the 8-byte header).
                        let real = s.udp().length;
                        s.udp_mut().length = real.saturating_sub(rng.gen_range(1..=8)).max(8);
                    } else {
                        // Garbled checksum; avoid 0, which means "disabled"
                        // (and validates) over IPv4.
                        let stored = s.udp().checksum;
                        let garbled = stored ^ 0x1400;
                        s.udp_mut().checksum = if garbled == 0 { 0x0a00 } else { garbled };
                    }
                    Some(s)
                })
            }
            Mechanic::FragOverlap => {
                if conn.key.proto != net_packet::ipv4::PROTO_TCP || !conn.key.client.addr.is_ipv4()
                {
                    return None;
                }
                let idx = conn
                    .data_packet_indices()
                    .into_iter()
                    .find(|&i| conn.packets[i].ip.is_v4() && conn.packets[i].payload.len() >= 16)?;
                let orig = &conn.packets[idx];
                let bytes = orig.to_bytes();
                // Split the transport area roughly in half, 8-byte aligned.
                let area = bytes.len() - orig.ip.header_len_bytes();
                let chunk = (area / 2).div_ceil(8) * 8;
                let frags = net_packet::fragment_datagram(&bytes, chunk.max(8));
                if frags.len() < 2 {
                    return None;
                }
                // The evil duplicate of the first fragment: same range, its
                // bytes disagree. Arriving second, it loses to the genuine
                // fragment under first-received-wins — but the conflict is
                // recorded.
                let mut evil = frags[0].clone();
                let hdr = ((evil[0] & 0x0f) as usize * 4).clamp(20, evil.len());
                for b in &mut evil[hdr..] {
                    *b ^= 0x5a;
                }
                let mut reasm = net_packet::Reassembler::new();
                let order = std::iter::once(&frags[0])
                    .chain(std::iter::once(&evil))
                    .chain(frags[1..].iter());
                let mut done = None;
                for (k, f) in order.enumerate() {
                    if let Some(p) = reasm.push(orig.timestamp + k as f64 * 1e-7, f) {
                        done = Some(p);
                    }
                }
                let mut done = done?;
                done.timestamp = orig.timestamp;
                if !done.reassembly.as_ref().is_some_and(|r| r.conflicting) {
                    return None;
                }
                let mut out = conn.clone();
                out.packets[idx] = done;
                Some(AttackResult {
                    connection: out,
                    adversarial_indices: vec![idx],
                    strategy_id,
                })
            }
        }
    }

    /// Shadow-insertion skeleton for the Extended families: before each of
    /// the first `count` data packets, insert the shadow produced by
    /// `craft(packet, timestamp, rng)`.
    fn shadow_with(
        conn: &Connection,
        strategy_id: &'static str,
        count: ShadowCount,
        rng: &mut StdRng,
        mut craft: impl FnMut(&Packet, f64, &mut StdRng) -> Option<Packet>,
    ) -> Option<AttackResult> {
        let targets = shadow_targets(conn, count);
        if targets.is_empty() {
            return None;
        }
        let mut out = Connection::new(conn.key);
        let mut adversarial = Vec::new();
        for (i, p) in conn.packets.iter().enumerate() {
            if targets.contains(&i) {
                if let Some(shadow) = craft(p, timestamp_between(conn, i), rng) {
                    adversarial.push(out.packets.len());
                    out.packets.push(shadow);
                }
            }
            out.packets.push(p.clone());
        }
        if adversarial.is_empty() {
            return None;
        }
        Some(AttackResult {
            connection: out,
            adversarial_indices: adversarial,
            strategy_id,
        })
    }

    /// Shared shadow-insertion logic: before each of the first `count`
    /// data packets, insert either a corrupted copy of that data packet
    /// (`rst_flags = None`) or a crafted RST (`Some(flags)`).
    fn shadow(
        &self,
        conn: &Connection,
        strategy_id: &'static str,
        rng: &mut StdRng,
        count: ShadowCount,
        corruptions: &[Corruption],
        rst_flags: Option<TcpFlags>,
    ) -> Option<AttackResult> {
        let targets = shadow_targets(conn, count);
        if targets.is_empty() {
            return None;
        }

        let mut out = Connection::new(conn.key);
        let mut adversarial = Vec::new();
        for (i, p) in conn.packets.iter().enumerate() {
            if targets.contains(&i) {
                let mut shadow = match rst_flags {
                    Some(flags) => craft_client_segment(conn, i, flags, 0),
                    None => {
                        let mut s = p.clone();
                        s.timestamp = timestamp_between(conn, i);
                        s
                    }
                };
                let ctx = seq_context_at(conn, i);
                Corruption::apply_all(corruptions, &mut shadow, &ctx, rng);
                adversarial.push(out.packets.len());
                out.packets.push(shadow);
            }
            out.packets.push(p.clone());
        }
        Some(AttackResult {
            connection: out,
            adversarial_indices: adversarial,
            strategy_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn benign() -> Vec<Connection> {
        traffic_gen::dataset(41, 12)
    }

    #[test]
    fn inject_after_handshake_positions_correctly() {
        let conns = benign();
        let mech = Mechanic::Inject {
            point: InjectionPoint::AfterHandshake,
            flags: TcpFlags::RST,
            payload: 0,
            corruptions: vec![Corruption::BadTcpChecksum],
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut applied = 0;
        for conn in &conns {
            if let Some(r) = mech.apply(conn, "test", &mut rng) {
                applied += 1;
                assert_eq!(r.connection.len(), conn.len() + 1);
                let idx = r.adversarial_indices[0];
                let injected = &r.connection.packets[idx];
                assert!(injected.tcp().flags.contains(TcpFlags::RST));
                assert!(!injected.transport_checksum_valid());
                // Comes after the handshake-completing ACK.
                assert!(idx >= 3);
            }
        }
        assert!(applied >= conns.len() / 2);
    }

    #[test]
    fn injected_segment_has_plausible_seq() {
        let conns = benign();
        let mech = Mechanic::Inject {
            point: InjectionPoint::AfterHandshake,
            flags: TcpFlags::RST | TcpFlags::ACK,
            payload: 0,
            corruptions: vec![],
        };
        let mut rng = StdRng::seed_from_u64(2);
        for conn in &conns {
            if let Some(r) = mech.apply(conn, "t", &mut rng) {
                let idx = r.adversarial_indices[0];
                let ctx = seq_context_at(conn, idx);
                assert_eq!(r.connection.packets[idx].tcp().seq, ctx.snd_nxt);
            }
        }
    }

    #[test]
    fn modify_syn_keeps_length_and_index() {
        let conns = benign();
        let mech = Mechanic::ModifySyn {
            payload: 32,
            corruptions: vec![],
        };
        let mut rng = StdRng::seed_from_u64(3);
        for conn in &conns {
            let r = mech.apply(conn, "t", &mut rng).unwrap();
            assert_eq!(r.connection.len(), conn.len());
            let idx = r.adversarial_indices[0];
            let p = &r.connection.packets[idx];
            assert!(p.tcp().flags.contains(TcpFlags::SYN));
            assert_eq!(p.payload.len(), 32);
            assert!(p.transport_checksum_valid());
        }
    }

    #[test]
    fn shadow_counts_respected() {
        let conns = benign();
        let mut rng = StdRng::seed_from_u64(4);
        for count in [ShadowCount::One, ShadowCount::Five, ShadowCount::All] {
            let mech = Mechanic::ShadowData {
                count,
                corruptions: vec![Corruption::LowTtl],
            };
            for conn in &conns {
                if let Some(r) = mech.apply(conn, "t", &mut rng) {
                    let n = r.adversarial_indices.len();
                    match count {
                        ShadowCount::One => assert_eq!(n, 1),
                        ShadowCount::Five => assert!((1..=5).contains(&n)),
                        ShadowCount::All => assert!(n >= 1),
                    }
                    assert_eq!(r.connection.len(), conn.len() + n);
                    for &i in &r.adversarial_indices {
                        assert!((1..=4).contains(&r.connection.packets[i].ipv4().ttl));
                    }
                }
            }
        }
    }

    #[test]
    fn shadow_rst_uses_rst_flags() {
        let conns = benign();
        let mut rng = StdRng::seed_from_u64(5);
        let mech = Mechanic::ShadowRst {
            count: ShadowCount::One,
            with_ack: true,
            corruptions: vec![Corruption::LowTtl],
        };
        for conn in &conns {
            if let Some(r) = mech.apply(conn, "t", &mut rng) {
                let p = &r.connection.packets[r.adversarial_indices[0]];
                assert!(p.tcp().flags.contains(TcpFlags::RST));
                assert!(p.tcp().flags.contains(TcpFlags::ACK));
            }
        }
    }

    #[test]
    fn timestamps_remain_monotone_after_attack() {
        let conns = benign();
        let mut rng = StdRng::seed_from_u64(6);
        let mech = Mechanic::ShadowData {
            count: ShadowCount::All,
            corruptions: vec![Corruption::BadTcpChecksum],
        };
        for conn in &conns {
            if let Some(r) = mech.apply(conn, "t", &mut rng) {
                for w in r.connection.packets.windows(2) {
                    assert!(w[1].timestamp >= w[0].timestamp - 1e-9);
                }
            }
        }
    }
}
