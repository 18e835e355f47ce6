//! Packet model for the CLAP reproduction: IPv4/IPv6 × TCP/UDP, with
//! IPv4 fragment reassembly.
//!
//! This crate is the wire-format substrate of the workspace. It provides:
//!
//! * a *structured* representation of the network and transport headers
//!   ([`Ipv4Header`], [`Ipv6Header`], [`TcpHeader`], [`UdpHeader`],
//!   [`TcpOption`]) in which every scalar field is stored verbatim —
//!   including fields that DPI-evasion attacks deliberately corrupt
//!   (checksums, lengths, data offsets, versions, extension chains).
//!   Serialization writes the stored values as-is, so an attack simulator
//!   can produce ill-formed packets that survive a round trip through the
//!   wire format;
//! * Internet checksum computation and validation for both IP versions and
//!   both transports ([`checksum`]);
//! * lenient wire-format parsing that never panics on hostile input
//!   ([`wire`]);
//! * an IPv4 fragment reassembler with a bounded, expiring fragment cache
//!   ([`frag`]);
//! * classic libpcap file I/O with the `LINKTYPE_RAW` link type so traces
//!   interoperate with tcpdump/Wireshark ([`pcap`]);
//! * connection-level containers ([`Connection`], [`Direction`],
//!   [`FlowKey`]) shared by the traffic generator, the attack simulator and
//!   the detector.
//!
//! # Version / fragment dispatch
//!
//! [`wire::parse_packet`] dispatches on the version nibble of the first
//! byte: `6` takes the IPv6 path (fixed header, then extension-header
//! walking for the options-shaped types 0/43/60 until an upper-layer
//! protocol is reached); every other value takes the IPv4 path with the
//! version stored verbatim, so deliberately corrupted versions (an attack
//! sets e.g. 5) still parse as the corrupt-v4 packets they are on the wire.
//! On the v4 path, a packet with a non-zero fragment offset **or** the MF
//! flag set is *not* decoded as a standalone transport packet — decoding
//! mid-datagram bytes as a TCP header is how phantom flows get fabricated.
//! It returns [`wire::ParseError::Fragment`] instead, and the caller routes
//! the raw bytes to a [`frag::Reassembler`] (as [`pcap::read_pcap`] does
//! internally), which reconstructs the full datagram once all pieces have
//! arrived and records whether overlapping fragments were seen.
//!
//! # Lenient-parse contract
//!
//! Parsing never panics on hostile input and errs toward preserving the
//! wire image:
//!
//! * header-length fields (IHL, TCP data offset, v6 `hdr_ext_len`) are
//!   taken as written but clamped to the buffer when slicing;
//! * the payload ends at the IP datagram length (`total_length` /
//!   40 + `payload_length`) when that value is plausible — at least large
//!   enough for the fixed headers and no larger than the capture — so
//!   link-layer trailer padding is not miscounted as payload; an
//!   implausible datagram length falls back to the captured buffer;
//! * structurally unreadable TCP options are preserved verbatim as
//!   [`TcpOption::Raw`] so re-serialization reproduces the exact bytes;
//! * `Err` is returned only when the buffer cannot contain the fixed
//!   headers, the upper protocol is neither TCP nor UDP, or the packet is
//!   a fragment awaiting reassembly.
//!
//! The design follows the smoltcp philosophy: plain data structures,
//! explicit state, no macro tricks, and `Result`-based error handling.

pub mod checksum;
pub mod connection;
pub mod flows;
pub mod frag;
pub mod ipv4;
pub mod ipv6;
pub mod pcap;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use connection::{Connection, Direction, Endpoint, FlowKey};
pub use flows::{assemble_connections, CanonicalKey};
pub use frag::{fragment_datagram, Reassembler, ReassemblyInfo};
pub use ipv4::Ipv4Header;
pub use ipv6::{Ipv6ExtHeader, Ipv6Header};
pub use tcp::{TcpFlags, TcpHeader, TcpOption};
pub use udp::UdpHeader;

use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Network-layer header: IPv4 or IPv6.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IpHeader {
    V4(Ipv4Header),
    V6(Ipv6Header),
}

impl IpHeader {
    /// Source address, width-erased.
    pub fn src(&self) -> IpAddr {
        match self {
            IpHeader::V4(h) => IpAddr::V4(h.src),
            IpHeader::V6(h) => IpAddr::V6(h.src),
        }
    }

    /// Destination address, width-erased.
    pub fn dst(&self) -> IpAddr {
        match self {
            IpHeader::V4(h) => IpAddr::V4(h.dst),
            IpHeader::V6(h) => IpAddr::V6(h.dst),
        }
    }

    /// TTL (v4) / hop limit (v6).
    pub fn ttl(&self) -> u8 {
        match self {
            IpHeader::V4(h) => h.ttl,
            IpHeader::V6(h) => h.hop_limit,
        }
    }

    /// Upper-layer protocol number: the v4 protocol field, or the value at
    /// the end of the v6 extension chain.
    pub fn protocol(&self) -> u8 {
        match self {
            IpHeader::V4(h) => h.protocol,
            IpHeader::V6(h) => h.final_protocol(),
        }
    }

    /// Version nibble as written on the wire.
    pub fn version_field(&self) -> u8 {
        match self {
            IpHeader::V4(h) => h.version,
            IpHeader::V6(h) => h.version,
        }
    }

    /// Structure-derived header length in bytes (v6: including stored
    /// extension headers).
    pub fn header_len_bytes(&self) -> usize {
        match self {
            IpHeader::V4(h) => h.header_len_bytes(),
            IpHeader::V6(h) => h.header_len_bytes(),
        }
    }

    /// The whole-datagram length claimed on the wire: v4 `total_length`,
    /// or v6 fixed header + `payload_length`.
    pub fn total_length_field(&self) -> usize {
        match self {
            IpHeader::V4(h) => h.total_length as usize,
            IpHeader::V6(h) => ipv6::IPV6_HEADER_LEN + h.payload_length as usize,
        }
    }

    pub fn is_v4(&self) -> bool {
        matches!(self, IpHeader::V4(_))
    }

    pub fn v4(&self) -> Option<&Ipv4Header> {
        match self {
            IpHeader::V4(h) => Some(h),
            IpHeader::V6(_) => None,
        }
    }

    pub fn v4_mut(&mut self) -> Option<&mut Ipv4Header> {
        match self {
            IpHeader::V4(h) => Some(h),
            IpHeader::V6(_) => None,
        }
    }

    pub fn v6(&self) -> Option<&Ipv6Header> {
        match self {
            IpHeader::V6(h) => Some(h),
            IpHeader::V4(_) => None,
        }
    }
}

/// Transport-layer header: TCP or UDP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    Tcp(TcpHeader),
    Udp(UdpHeader),
}

impl Transport {
    pub fn src_port(&self) -> u16 {
        match self {
            Transport::Tcp(t) => t.src_port,
            Transport::Udp(u) => u.src_port,
        }
    }

    pub fn dst_port(&self) -> u16 {
        match self {
            Transport::Tcp(t) => t.dst_port,
            Transport::Udp(u) => u.dst_port,
        }
    }

    /// Structure-derived header length in bytes.
    pub fn header_len_bytes(&self) -> usize {
        match self {
            Transport::Tcp(t) => t.header_len_bytes(),
            Transport::Udp(u) => u.header_len_bytes(),
        }
    }

    /// IP protocol number of this transport (6 or 17).
    pub fn protocol_number(&self) -> u8 {
        match self {
            Transport::Tcp(_) => ipv4::PROTO_TCP,
            Transport::Udp(_) => ipv4::PROTO_UDP,
        }
    }

    pub fn tcp(&self) -> Option<&TcpHeader> {
        match self {
            Transport::Tcp(t) => Some(t),
            Transport::Udp(_) => None,
        }
    }

    pub fn tcp_mut(&mut self) -> Option<&mut TcpHeader> {
        match self {
            Transport::Tcp(t) => Some(t),
            Transport::Udp(_) => None,
        }
    }

    pub fn udp(&self) -> Option<&UdpHeader> {
        match self {
            Transport::Udp(u) => Some(u),
            Transport::Tcp(_) => None,
        }
    }

    pub fn udp_mut(&mut self) -> Option<&mut UdpHeader> {
        match self {
            Transport::Udp(u) => Some(u),
            Transport::Tcp(_) => None,
        }
    }
}

/// A packet's two checksum verdicts, as [`Packet::checksums`] computed
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksums {
    /// The IP header checksum matches (always, for IPv6).
    pub ip: bool,
    /// The TCP or UDP checksum matches.
    pub transport: bool,
}

/// One captured packet: capture timestamp, network + transport headers and
/// payload.
///
/// `timestamp` is in seconds relative to the start of the trace. Payload is
/// kept as raw bytes; CLAP itself never inspects payload contents (the paper
/// trains on payload-stripped captures) but payload *length* is a feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Capture time in seconds relative to trace start.
    pub timestamp: f64,
    /// Network header, stored field-by-field (possibly deliberately invalid).
    pub ip: IpHeader,
    /// Transport header, stored field-by-field (possibly deliberately
    /// invalid).
    pub transport: Transport,
    /// Transport payload bytes.
    pub payload: Vec<u8>,
    /// Set when this packet was reconstructed from IPv4 fragments; records
    /// how the reassembly went (fragment count, overlaps). `None` for
    /// packets that arrived whole.
    pub reassembly: Option<ReassemblyInfo>,
    /// Captured bytes past the end of the IP datagram: link-layer trailer
    /// padding on short frames, or bytes a lying length field excludes.
    /// Never part of the payload, the checksums or any feature — an
    /// endhost ignores them — but re-emitted by [`Packet::to_bytes`] so a
    /// capture round trip preserves the wire image bit-exactly instead of
    /// sanitizing deliberately corrupt length fields.
    pub trailer: Vec<u8>,
}

impl Packet {
    /// Builds a TCP/IPv4 packet with consistent length/offset fields and
    /// correct checksums from the given headers and payload.
    pub fn new(timestamp: f64, ip: Ipv4Header, tcp: TcpHeader, payload: Vec<u8>) -> Self {
        Packet::build(timestamp, IpHeader::V4(ip), Transport::Tcp(tcp), payload)
    }

    /// Builds a TCP/IPv6 packet (extension chain taken from `ip`).
    pub fn new_v6(timestamp: f64, ip: Ipv6Header, tcp: TcpHeader, payload: Vec<u8>) -> Self {
        Packet::build(timestamp, IpHeader::V6(ip), Transport::Tcp(tcp), payload)
    }

    /// Builds a UDP/IPv4 packet.
    pub fn new_udp(timestamp: f64, ip: Ipv4Header, udp: UdpHeader, payload: Vec<u8>) -> Self {
        Packet::build(timestamp, IpHeader::V4(ip), Transport::Udp(udp), payload)
    }

    /// Builds a UDP/IPv6 packet.
    pub fn new_udp6(timestamp: f64, ip: Ipv6Header, udp: UdpHeader, payload: Vec<u8>) -> Self {
        Packet::build(timestamp, IpHeader::V6(ip), Transport::Udp(udp), payload)
    }

    /// Normalizes lengths/offsets for a well-formed packet and fills
    /// checksums. Corruption (for attack crafting) happens *after*
    /// construction by mutating fields directly.
    fn build(timestamp: f64, mut ip: IpHeader, mut transport: Transport, payload: Vec<u8>) -> Self {
        let proto = transport.protocol_number();
        if let Transport::Tcp(tcp) = &mut transport {
            tcp.normalize_data_offset();
        }
        let transport_len = transport.header_len_bytes() + payload.len();
        if let Transport::Udp(udp) = &mut transport {
            udp.length = transport_len as u16;
        }
        match &mut ip {
            IpHeader::V4(h) => {
                h.protocol = proto;
                h.ihl = ipv4::BASE_IHL + (h.options.len() as u8).div_ceil(4);
                h.total_length = (h.header_len_bytes() + transport_len) as u16;
            }
            IpHeader::V6(h) => {
                match h.ext.last_mut() {
                    Some(last) => last.next_header = proto,
                    None => h.next_header = proto,
                }
                h.payload_length =
                    (h.header_len_bytes() - ipv6::IPV6_HEADER_LEN + transport_len) as u16;
            }
        }
        let mut pkt = Packet {
            timestamp,
            ip,
            transport,
            payload,
            reassembly: None,
            trailer: Vec::new(),
        };
        pkt.fill_checksums();
        pkt
    }

    /// TCP header of a packet known to be TCP.
    ///
    /// Panics on UDP packets — for constructors, attack simulators and
    /// tests that built the packet and know its shape. Dispatching code
    /// must match on [`Packet::transport`] instead.
    #[track_caller]
    pub fn tcp(&self) -> &TcpHeader {
        self.transport.tcp().expect("not a TCP packet")
    }

    /// Mutable [`Packet::tcp`]; same known-shape contract.
    #[track_caller]
    pub fn tcp_mut(&mut self) -> &mut TcpHeader {
        self.transport.tcp_mut().expect("not a TCP packet")
    }

    /// IPv4 header of a packet known to be IPv4; panics on IPv6
    /// (same known-shape contract as [`Packet::tcp`]).
    #[track_caller]
    pub fn ipv4(&self) -> &Ipv4Header {
        self.ip.v4().expect("not an IPv4 packet")
    }

    /// Mutable [`Packet::ipv4`]; same known-shape contract.
    #[track_caller]
    pub fn ipv4_mut(&mut self) -> &mut Ipv4Header {
        self.ip.v4_mut().expect("not an IPv4 packet")
    }

    /// UDP header of a packet known to be UDP; panics on TCP.
    #[track_caller]
    pub fn udp(&self) -> &UdpHeader {
        self.transport.udp().expect("not a UDP packet")
    }

    /// Mutable [`Packet::udp`]; same known-shape contract.
    #[track_caller]
    pub fn udp_mut(&mut self) -> &mut UdpHeader {
        self.transport.udp_mut().expect("not a UDP packet")
    }

    /// Source address, width-erased.
    pub fn src_addr(&self) -> IpAddr {
        self.ip.src()
    }

    /// Destination address, width-erased.
    pub fn dst_addr(&self) -> IpAddr {
        self.ip.dst()
    }

    pub fn src_port(&self) -> u16 {
        self.transport.src_port()
    }

    pub fn dst_port(&self) -> u16 {
        self.transport.dst_port()
    }

    /// Bytes this packet owns on the heap beyond its own size: payload,
    /// trailer, IPv4 options or the IPv6 extension chain, and the TCP
    /// options — what a clone of it allocates.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ip = match &self.ip {
            IpHeader::V4(h) => h.options.capacity(),
            IpHeader::V6(h) => {
                h.ext.capacity() * size_of::<Ipv6ExtHeader>()
                    + h.ext.iter().map(|e| e.data.capacity()).sum::<usize>()
            }
        };
        let transport = match &self.transport {
            Transport::Tcp(t) => {
                t.options.capacity() * size_of::<TcpOption>()
                    + t.options
                        .iter()
                        .map(|o| match o {
                            TcpOption::Sack(blocks) => blocks.capacity() * size_of::<(u32, u32)>(),
                            TcpOption::Unknown { data, .. } | TcpOption::Raw(data) => {
                                data.capacity()
                            }
                            TcpOption::Mss(_)
                            | TcpOption::WindowScale(_)
                            | TcpOption::SackPermitted
                            | TcpOption::Timestamps { .. }
                            | TcpOption::Md5(_)
                            | TcpOption::UserTimeout(_)
                            | TcpOption::Nop => 0,
                        })
                        .sum::<usize>()
            }
            Transport::Udp(_) => 0,
        };
        self.payload.capacity() + self.trailer.capacity() + ip + transport
    }

    /// TCP flags, or the empty set for non-TCP packets — so flag tests
    /// (`is this a pure SYN?`) stay branch-free at call sites.
    pub fn tcp_flags(&self) -> TcpFlags {
        match &self.transport {
            Transport::Tcp(t) => t.flags,
            Transport::Udp(_) => TcpFlags::empty(),
        }
    }

    pub fn is_tcp(&self) -> bool {
        matches!(self.transport, Transport::Tcp(_))
    }

    pub fn is_udp(&self) -> bool {
        matches!(self.transport, Transport::Udp(_))
    }

    /// Recomputes and stores correct network and transport checksums
    /// (IPv6 has no header checksum; UDP over IPv4 maps a computed 0 to
    /// `0xffff` per RFC 768).
    pub fn fill_checksums(&mut self) {
        if let IpHeader::V4(h) = &mut self.ip {
            h.checksum = 0;
            h.checksum = checksum::ipv4_checksum(h);
        }
        match &mut self.transport {
            Transport::Tcp(t) => t.checksum = 0,
            Transport::Udp(u) => u.checksum = 0,
        }
        let sum = checksum::transport_checksum(&self.ip, &self.transport, &self.payload);
        match &mut self.transport {
            Transport::Tcp(t) => t.checksum = sum,
            Transport::Udp(u) => u.checksum = if sum == 0 { 0xffff } else { sum },
        }
    }

    /// True when the stored IP header checksum matches the header contents.
    /// IPv6 has no header checksum, so v6 packets always validate.
    pub fn ip_checksum_valid(&self) -> bool {
        match &self.ip {
            IpHeader::V4(h) => checksum::ipv4_checksum_ignoring_stored(h) == h.checksum,
            IpHeader::V6(_) => true,
        }
    }

    /// True when the stored transport checksum matches the segment contents
    /// (including the pseudo-header derived from the IP addresses). UDP
    /// over IPv4 with a zero checksum is "checksum disabled" and validates;
    /// over IPv6 a zero checksum is forbidden and fails.
    pub fn transport_checksum_valid(&self) -> bool {
        let stored = match &self.transport {
            Transport::Tcp(t) => t.checksum,
            Transport::Udp(u) => {
                if u.checksum == 0 {
                    return self.ip.is_v4();
                }
                u.checksum
            }
        };
        let computed =
            checksum::transport_checksum_ignoring_stored(&self.ip, &self.transport, &self.payload);
        // A computed 0 is transmitted as 0xffff for UDP (0 means "none").
        let computed = match &self.transport {
            Transport::Udp(_) if computed == 0 => 0xffff,
            _ => computed,
        };
        computed == stored
    }

    /// Both checksum verdicts at once — [`ip_checksum_valid`] and
    /// [`transport_checksum_valid`] — for a caller that hands one packet
    /// to several consumers (tracker, feature extractor), so each sum is
    /// computed once a packet.
    ///
    /// [`ip_checksum_valid`]: Packet::ip_checksum_valid
    /// [`transport_checksum_valid`]: Packet::transport_checksum_valid
    pub fn checksums(&self) -> Checksums {
        Checksums {
            ip: self.ip_checksum_valid(),
            transport: self.transport_checksum_valid(),
        }
    }

    /// Total on-wire length implied by the *actual* structure (not the
    /// possibly-corrupted length fields).
    pub fn wire_len(&self) -> usize {
        self.ip.header_len_bytes() + self.transport.header_len_bytes() + self.payload.len()
    }

    /// Sequence-space length consumed by this segment (payload + SYN + FIN
    /// for TCP; plain payload length for UDP, which has no sequence space
    /// but where the same quantity drives length features).
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload.len() as u32;
        if let Transport::Tcp(t) = &self.transport {
            if t.flags.contains(TcpFlags::SYN) {
                len += 1;
            }
            if t.flags.contains(TcpFlags::FIN) {
                len += 1;
            }
        }
        len
    }

    /// Serializes to raw IP bytes (suitable for `LINKTYPE_RAW` pcap).
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::serialize_packet(self)
    }

    /// Parses raw IP bytes; see the crate docs for the dispatch and
    /// lenient-parse contract.
    pub fn from_bytes(timestamp: f64, data: &[u8]) -> Result<Self, wire::ParseError> {
        wire::parse_packet(timestamp, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn sample() -> Packet {
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        let mut tcp = TcpHeader::new(40000, 80, 1000, 2000);
        tcp.flags = TcpFlags::ACK | TcpFlags::PSH;
        tcp.options.push(TcpOption::Timestamps {
            tsval: 77,
            tsecr: 66,
        });
        Packet::new(0.5, ip, tcp, b"hello".to_vec())
    }

    fn sample_udp6() -> Packet {
        let ip = Ipv6Header::new(
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
            64,
        );
        let udp = UdpHeader::new(40000, 53);
        Packet::new_udp6(0.5, ip, udp, b"query".to_vec())
    }

    #[test]
    fn new_packet_has_valid_checksums() {
        let p = sample();
        assert!(p.ip_checksum_valid());
        assert!(p.transport_checksum_valid());
    }

    #[test]
    fn corrupting_checksum_is_detected() {
        let mut p = sample();
        p.tcp_mut().checksum ^= 0xdead;
        assert!(!p.transport_checksum_valid());
        p = sample();
        p.ipv4_mut().checksum ^= 0x1;
        assert!(!p.ip_checksum_valid());
    }

    #[test]
    fn total_length_consistent() {
        let p = sample();
        // 20 IP + 20 TCP + 12 options (10 rounded to 12) + 5 payload
        assert_eq!(p.ipv4().total_length as usize, p.wire_len());
        assert_eq!(p.wire_len(), 20 + 20 + 12 + 5);
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut p = sample();
        assert_eq!(p.seq_len(), 5);
        p.tcp_mut().flags |= TcpFlags::SYN;
        assert_eq!(p.seq_len(), 6);
        p.tcp_mut().flags |= TcpFlags::FIN;
        assert_eq!(p.seq_len(), 7);
    }

    #[test]
    fn mutating_payload_invalidates_tcp_checksum_only() {
        let mut p = sample();
        p.payload[0] ^= 0xff;
        assert!(p.ip_checksum_valid());
        assert!(!p.transport_checksum_valid());
    }

    #[test]
    fn protocol_udp6_packet_is_consistent() {
        let p = sample_udp6();
        assert!(p.is_udp());
        assert!(!p.ip.is_v4());
        assert_eq!(p.ip.protocol(), ipv4::PROTO_UDP);
        assert_eq!(p.udp().length as usize, 8 + 5);
        assert!(p.ip_checksum_valid(), "v6 has no header checksum");
        assert!(p.transport_checksum_valid());
        assert_eq!(p.seq_len(), 5);
        assert_eq!(p.tcp_flags(), TcpFlags::empty());
    }

    #[test]
    fn protocol_udp_zero_checksum_rules() {
        // v4: checksum 0 means "disabled" and validates.
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        let mut p = Packet::new_udp(0.0, ip, UdpHeader::new(1000, 53), b"x".to_vec());
        p.udp_mut().checksum = 0;
        assert!(p.transport_checksum_valid());
        // v6: checksum 0 is forbidden.
        let mut q = sample_udp6();
        q.udp_mut().checksum = 0;
        assert!(!q.transport_checksum_valid());
    }
}
