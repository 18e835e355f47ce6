//! RFC 1071 Internet checksum and the TCP/UDP pseudo-header checksums,
//! over both IPv4 and IPv6.
//!
//! The header checksums are computed by streaming the wire-format field
//! bytes through a chunked accumulator instead of serializing the header
//! to a scratch buffer first: checksum validation sits on the reference
//! tracker's per-packet path, where a heap allocation per packet would
//! dominate the flow-table work.

use crate::{IpHeader, Ipv4Header, TcpFlags, TcpHeader, Transport, UdpHeader};

/// Ones'-complement sum over 16-bit words with odd-byte handling, folded to
/// 16 bits. `initial` allows chaining (pseudo-header then segment).
pub fn ones_complement_sum(data: &[u8], initial: u32) -> u32 {
    let mut sum = initial;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds carries and complements the running sum into the final checksum.
pub fn finalize(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Chunk-streaming RFC 1071 accumulator: feed the byte stream in arbitrary
/// pieces (header fields, option chunks, payload) and the pairing into
/// 16-bit big-endian words carries across chunk boundaries exactly as if
/// the stream were contiguous.
#[derive(Default)]
struct Summer {
    sum: u32,
    pending: Option<u8>,
}

impl Summer {
    fn push(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            match data.split_first() {
                Some((&lo, rest)) => {
                    self.sum += u32::from(u16::from_be_bytes([hi, lo]));
                    data = rest;
                }
                None => {
                    self.pending = Some(hi);
                    return;
                }
            }
        }
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    fn finish(self) -> u32 {
        match self.pending {
            Some(hi) => self.sum + u32::from(u16::from_be_bytes([hi, 0])),
            None => self.sum,
        }
    }
}

/// Sums the serialized IPv4 header with the checksum field replaced by
/// `checksum_field`, without materializing the bytes.
fn ipv4_sum(h: &Ipv4Header, checksum_field: u16) -> u16 {
    let mut s = Summer::default();
    s.push(&[(h.version << 4) | (h.ihl & 0x0f), h.tos]);
    s.push(&h.total_length.to_be_bytes());
    s.push(&h.identification.to_be_bytes());
    let frag = (u16::from(h.flags & 0x7) << 13) | (h.fragment_offset & 0x1fff);
    s.push(&frag.to_be_bytes());
    s.push(&[h.ttl, h.protocol]);
    s.push(&checksum_field.to_be_bytes());
    s.push(&h.src.octets());
    s.push(&h.dst.octets());
    s.push(&h.options);
    // Zero padding to the 4-byte boundary cannot change the sum; skip it.
    finalize(s.finish())
}

/// Adds the pseudo-header for `ip` (v4: 12 bytes; v6: 40 bytes) to the
/// running sum. `proto` is the transport protocol number and `length` the
/// transport length (header + payload) used in the pseudo-header.
fn pseudo_header_sum(ip: &IpHeader, proto: u8, length: u32, segment_sum: u32) -> u32 {
    match ip {
        IpHeader::V4(h) => {
            let mut pseudo = [0u8; 12];
            pseudo[0..4].copy_from_slice(&h.src.octets());
            pseudo[4..8].copy_from_slice(&h.dst.octets());
            pseudo[8] = 0;
            pseudo[9] = proto;
            pseudo[10..12].copy_from_slice(&(length as u16).to_be_bytes());
            ones_complement_sum(&pseudo, segment_sum)
        }
        IpHeader::V6(h) => {
            let mut pseudo = [0u8; 40];
            pseudo[0..16].copy_from_slice(&h.src.octets());
            pseudo[16..32].copy_from_slice(&h.dst.octets());
            pseudo[32..36].copy_from_slice(&length.to_be_bytes());
            pseudo[39] = proto;
            ones_complement_sum(&pseudo, segment_sum)
        }
    }
}

/// Sums pseudo-header + TCP header (checksum field replaced by
/// `checksum_field`) + payload, without materializing the header bytes.
fn tcp_sum(ip: &IpHeader, tcp: &TcpHeader, payload: &[u8], checksum_field: u16) -> u16 {
    let mut s = Summer::default();
    s.push(&tcp.src_port.to_be_bytes());
    s.push(&tcp.dst_port.to_be_bytes());
    s.push(&tcp.seq.to_be_bytes());
    s.push(&tcp.ack.to_be_bytes());
    let ns = u8::from(tcp.flags.contains(TcpFlags::NS));
    s.push(&[(tcp.data_offset << 4) | ns, (tcp.flags.0 & 0xff) as u8]);
    s.push(&tcp.window.to_be_bytes());
    s.push(&checksum_field.to_be_bytes());
    s.push(&tcp.urgent.to_be_bytes());
    let mut opt_len = 0usize;
    crate::wire::emit_tcp_options(&tcp.options, &mut |b: &[u8]| {
        opt_len += b.len();
        s.push(b);
    });
    s.push(payload);
    // Pseudo-header TCP length: derived from the actual structure, which —
    // because the parser slices the payload by the IP datagram length —
    // equals the `total_length`-derived value for any packet whose length
    // fields are honest (link-layer trailer padding never reaches here).
    let tcp_len = (20 + opt_len + payload.len()) as u32;
    finalize(pseudo_header_sum(
        ip,
        crate::ipv4::PROTO_TCP,
        tcp_len,
        s.finish(),
    ))
}

/// Sums pseudo-header + UDP header (checksum field replaced by
/// `checksum_field`) + payload. Per RFC 768 the pseudo-header length is the
/// UDP `length` **field** — so a lying length changes the checksum, which
/// is exactly the coupling the UDP length/checksum attack family plays
/// with.
fn udp_sum(ip: &IpHeader, udp: &UdpHeader, payload: &[u8], checksum_field: u16) -> u16 {
    let mut s = Summer::default();
    s.push(&udp.src_port.to_be_bytes());
    s.push(&udp.dst_port.to_be_bytes());
    s.push(&udp.length.to_be_bytes());
    s.push(&checksum_field.to_be_bytes());
    s.push(payload);
    finalize(pseudo_header_sum(
        ip,
        crate::ipv4::PROTO_UDP,
        u32::from(udp.length),
        s.finish(),
    ))
}

/// IPv4 header checksum over the serialized header with the checksum field
/// taken from `header.checksum` (set it to zero before computing).
pub fn ipv4_checksum(header: &Ipv4Header) -> u16 {
    ipv4_sum(header, header.checksum)
}

/// [`ipv4_checksum`] with the stored checksum field treated as zero — the
/// validation path, which would otherwise have to clone the header to zero
/// the field.
pub(crate) fn ipv4_checksum_ignoring_stored(header: &Ipv4Header) -> u16 {
    ipv4_sum(header, 0)
}

/// Transport checksum over the pseudo-header (v4 or v6), the serialized
/// transport header (with the stored checksum field; set it to zero before
/// computing) and the payload.
pub fn transport_checksum(ip: &IpHeader, transport: &Transport, payload: &[u8]) -> u16 {
    match transport {
        Transport::Tcp(t) => tcp_sum(ip, t, payload, t.checksum),
        Transport::Udp(u) => udp_sum(ip, u, payload, u.checksum),
    }
}

/// [`transport_checksum`] with the stored checksum field treated as zero —
/// the validation path, which would otherwise have to clone the header
/// (and its options) to zero the field.
pub(crate) fn transport_checksum_ignoring_stored(
    ip: &IpHeader,
    transport: &Transport,
    payload: &[u8],
) -> u16 {
    match transport {
        Transport::Tcp(t) => tcp_sum(ip, t, payload, 0),
        Transport::Udp(u) => udp_sum(ip, u, payload, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn rfc1071_example() {
        // Example adapted from RFC 1071 §3: sum of 0001 f203 f4f5 f6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = ones_complement_sum(&data, 0);
        assert_eq!(sum, 0x2ddf0);
        assert_eq!(finalize(sum), !0xddf2u16);
    }

    #[test]
    fn odd_length_padding() {
        let even = ones_complement_sum(&[0xab, 0x00], 0);
        let odd = ones_complement_sum(&[0xab], 0);
        assert_eq!(even, odd);
    }

    #[test]
    fn known_ipv4_header_checksum() {
        // Classic worked example (Wikipedia): 4500 0073 0000 4000 4011 b861
        // c0a8 0001 c0a8 00c7 has checksum 0xb861.
        let mut h = Ipv4Header::new(
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 199),
            64,
        );
        h.total_length = 0x73;
        h.flags = 0b010;
        h.protocol = 17; // UDP in the worked example
        h.checksum = 0;
        assert_eq!(ipv4_checksum(&h), 0xb861);
    }

    #[test]
    fn checksum_of_header_including_its_checksum_is_zero_sum() {
        let mut h = Ipv4Header::new(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(10, 2, 2, 2), 61);
        h.total_length = 40;
        h.checksum = 0;
        h.checksum = ipv4_checksum(&h);
        // Re-summing with the checksum in place must yield 0xffff before
        // complement, i.e. finalize == 0.
        let bytes = crate::wire::serialize_ipv4(&h);
        assert_eq!(finalize(ones_complement_sum(&bytes, 0)), 0);
    }
}
