//! Connection-level containers shared across the workspace.

use crate::ipv4::PROTO_TCP;
use crate::{Packet, TcpFlags};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Direction of a packet relative to the connection initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// From the connection initiator (client) to the responder (server).
    ClientToServer,
    /// From the responder back to the initiator.
    ServerToClient,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::ClientToServer => Direction::ServerToClient,
            Direction::ServerToClient => Direction::ClientToServer,
        }
    }

    /// Index (0 = client→server, 1 = server→client) for per-direction state.
    pub fn index(self) -> usize {
        match self {
            Direction::ClientToServer => 0,
            Direction::ServerToClient => 1,
        }
    }
}

/// One endpoint of a connection (IPv4 or IPv6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    pub addr: IpAddr,
    pub port: u16,
}

impl Endpoint {
    /// `impl Into<IpAddr>` so existing `Ipv4Addr` call sites keep working
    /// unchanged alongside `Ipv6Addr` and `IpAddr` ones.
    pub fn new(addr: impl Into<IpAddr>, port: u16) -> Self {
        Endpoint {
            addr: addr.into(),
            port,
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.addr {
            IpAddr::V4(a) => write!(f, "{}:{}", a, self.port),
            IpAddr::V6(a) => write!(f, "[{}]:{}", a, self.port),
        }
    }
}

/// The 5-tuple identifying a connection, oriented client → server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    pub client: Endpoint,
    pub server: Endpoint,
    /// Transport protocol number (6 TCP, 17 UDP): a TCP and a UDP flow on
    /// the same address/port pair are distinct flows.
    pub proto: u8,
}

impl FlowKey {
    /// A TCP flow key; use [`with_proto`](Self::with_proto) for UDP.
    pub fn new(client: Endpoint, server: Endpoint) -> Self {
        FlowKey {
            client,
            server,
            proto: PROTO_TCP,
        }
    }

    /// The same key with a different transport protocol.
    pub fn with_proto(mut self, proto: u8) -> Self {
        self.proto = proto;
        self
    }

    /// Classifies a packet against this key by source address/port.
    /// Returns `None` for packets that belong to neither direction.
    pub fn direction_of(&self, p: &Packet) -> Option<Direction> {
        let src = Endpoint::new(p.src_addr(), p.src_port());
        let dst = Endpoint::new(p.dst_addr(), p.dst_port());
        if src == self.client && dst == self.server {
            Some(Direction::ClientToServer)
        } else if src == self.server && dst == self.client {
            Some(Direction::ServerToClient)
        } else {
            None
        }
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.client, self.server)
    }
}

/// A single connection: its 5-tuple and time-ordered packets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Connection {
    pub key: FlowKey,
    pub packets: Vec<Packet>,
}

impl Connection {
    pub fn new(key: FlowKey) -> Self {
        Connection {
            key,
            packets: Vec::new(),
        }
    }

    /// Direction of packet `i` relative to the flow key; packets that match
    /// neither orientation (malformed injections with foreign tuples) are
    /// treated as client→server, the direction evasion attacks originate
    /// from in the paper's threat model.
    pub fn direction(&self, i: usize) -> Direction {
        self.key
            .direction_of(&self.packets[i])
            .unwrap_or(Direction::ClientToServer)
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the connection holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Indices of packets carrying payload in the ESTABLISHED phase, i.e.
    /// candidate "data packets" as the attack literature uses the term:
    /// non-SYN, non-RST packets with non-empty payload. (UDP packets have
    /// no flags, so every payload-carrying one qualifies.)
    pub fn data_packet_indices(&self) -> Vec<usize> {
        self.packets
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                !p.payload.is_empty()
                    && !p.tcp_flags().contains(TcpFlags::SYN)
                    && !p.tcp_flags().contains(TcpFlags::RST)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Index of the first packet after the three-way handshake completes
    /// (first packet following the client's handshake-completing ACK), or
    /// `None` for traces without a complete handshake.
    pub fn first_index_after_handshake(&self) -> Option<usize> {
        // SYN, then SYN-ACK, then the first client ACK completes the
        // handshake; return the position after that ACK.
        let mut saw_syn = false;
        let mut saw_synack = false;
        for (i, p) in self.packets.iter().enumerate() {
            let f = p.tcp_flags();
            if f.contains(TcpFlags::SYN) && !f.contains(TcpFlags::ACK) {
                saw_syn = true;
            } else if f.contains(TcpFlags::SYN) && f.contains(TcpFlags::ACK) {
                saw_synack = saw_syn;
            } else if saw_synack && f.contains(TcpFlags::ACK) {
                return Some(i + 1);
            }
        }
        None
    }

    /// Total payload bytes across the connection.
    pub fn total_payload(&self) -> usize {
        self.packets.iter().map(|p| p.payload.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipv4Header, TcpHeader};
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 50000),
            Endpoint::new(Ipv4Addr::new(93, 184, 216, 34), 443),
        )
    }

    fn v4(a: IpAddr) -> Ipv4Addr {
        match a {
            IpAddr::V4(v) => v,
            IpAddr::V6(_) => unreachable!("v4 test fixture"),
        }
    }

    fn pkt(key: &FlowKey, dir: Direction, flags: TcpFlags, payload: &[u8]) -> Packet {
        let (src, dst) = match dir {
            Direction::ClientToServer => (key.client, key.server),
            Direction::ServerToClient => (key.server, key.client),
        };
        let ip = Ipv4Header::new(v4(src.addr), v4(dst.addr), 64);
        let mut tcp = TcpHeader::new(src.port, dst.port, 100, 200);
        tcp.flags = flags;
        Packet::new(0.0, ip, tcp, payload.to_vec())
    }

    #[test]
    fn direction_classification() {
        let k = key();
        let c2s = pkt(&k, Direction::ClientToServer, TcpFlags::SYN, &[]);
        let s2c = pkt(
            &k,
            Direction::ServerToClient,
            TcpFlags::SYN | TcpFlags::ACK,
            &[],
        );
        assert_eq!(k.direction_of(&c2s), Some(Direction::ClientToServer));
        assert_eq!(k.direction_of(&s2c), Some(Direction::ServerToClient));
        assert_eq!(Direction::ClientToServer.flip(), Direction::ServerToClient);
    }

    #[test]
    fn handshake_detection() {
        let k = key();
        let mut conn = Connection::new(k);
        conn.packets
            .push(pkt(&k, Direction::ClientToServer, TcpFlags::SYN, &[]));
        conn.packets.push(pkt(
            &k,
            Direction::ServerToClient,
            TcpFlags::SYN | TcpFlags::ACK,
            &[],
        ));
        conn.packets
            .push(pkt(&k, Direction::ClientToServer, TcpFlags::ACK, &[]));
        conn.packets.push(pkt(
            &k,
            Direction::ClientToServer,
            TcpFlags::ACK | TcpFlags::PSH,
            b"data",
        ));
        assert_eq!(conn.first_index_after_handshake(), Some(3));
        assert_eq!(conn.data_packet_indices(), vec![3]);
        assert_eq!(conn.total_payload(), 4);
    }

    #[test]
    fn incomplete_handshake_returns_none() {
        let k = key();
        let mut conn = Connection::new(k);
        conn.packets
            .push(pkt(&k, Direction::ClientToServer, TcpFlags::SYN, &[]));
        assert_eq!(conn.first_index_after_handshake(), None);
    }

    #[test]
    fn foreign_packets_default_to_client_direction() {
        let k = key();
        let mut conn = Connection::new(k);
        let mut stray = pkt(&k, Direction::ClientToServer, TcpFlags::RST, &[]);
        stray.ipv4_mut().src = Ipv4Addr::new(8, 8, 8, 8);
        conn.packets.push(stray);
        assert_eq!(conn.direction(0), Direction::ClientToServer);
    }

    #[test]
    fn protocol_distinguishes_flows_on_same_tuple() {
        let tcp_key = key();
        let udp_key = tcp_key.with_proto(crate::ipv4::PROTO_UDP);
        assert_ne!(tcp_key, udp_key);
        assert_eq!(udp_key.client, tcp_key.client);
    }
}
