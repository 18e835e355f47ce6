//! Header-corruption primitives shared by all 73 strategies.
//!
//! Each primitive reproduces one of the header manipulations catalogued in
//! the source papers: a change that causes a rigorous endhost to drop (or
//! ignore) the packet while a simplified DPI implementation accepts it.
//! Primitives are applied *after* the crafted packet is made fully
//! consistent, so exactly one aspect is broken per primitive (except for
//! the checksum-corrupting ones, which are applied last by construction).

use net_packet::{Packet, TcpFlags, TcpOption};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Context the corruptions may need: the expected sequence space at the
/// injection point.
#[derive(Debug, Clone, Copy)]
pub struct SeqContext {
    /// ISN of the sending (client) direction.
    pub isn: u32,
    /// Next expected sequence from the sender.
    pub snd_nxt: u32,
    /// Timestamp value the sender last used, if timestamps are on.
    pub last_tsval: Option<u32>,
}

/// One header manipulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Corruption {
    /// Garble the TCP checksum (paper's motivating Bad-Checksum-RST).
    BadTcpChecksum,
    /// Random far-out-of-window sequence number.
    BadSeq,
    /// Sequence far *below* the ISN (wraps the sequence space).
    UnderflowSeq,
    /// Sequence inside the receive window but not exactly `rcv_nxt`
    /// (Snort accepts, RFC 5961 endhosts challenge).
    PartialInWindowSeq,
    /// Sequence overlapping already-received data.
    OverlappingSeq,
    /// Random invalid acknowledgment number.
    BadAck,
    /// Strip the ACK flag from a data segment.
    NoAckFlag,
    /// Set a non-zero urgent pointer without URG semantics.
    UrgentPointer,
    /// Attach a TCP MD5 signature option with a garbage digest.
    Md5Option,
    /// Timestamp far older than the last one seen (fails PAWS).
    BadTimestamp,
    /// Attach an unusual User-Timeout option.
    UtoOption,
    /// Window-scale option with an illegal shift (> 14).
    InvalidWScale,
    /// TTL too small to reach the server (but enough to pass the DPI).
    LowTtl,
    /// Data offset pointing past the segment end.
    DataOffsetTooLarge,
    /// Data offset below the 5-word minimum.
    DataOffsetTooSmall,
    /// Illegal flag combination #1: SYN|FIN.
    InvalidFlagsSynFin,
    /// Illegal flag combination #2: no flags at all (null).
    InvalidFlagsNull,
    /// Illegal flag combination #3: FIN without ACK plus URG|PSH (xmas-ish).
    InvalidFlagsXmas,
    /// IP total length longer than the actual packet.
    BadIpLenLong,
    /// IP total length shorter than the actual headers.
    BadIpLenShort,
    /// IP header length (IHL) larger than the real header.
    IhlTooLarge,
    /// IP header length below the 5-word minimum.
    IhlTooSmall,
    /// IP version that does not exist (5).
    InvalidIpVersion,
    /// Payload-length equivalence broken via the total-length field
    /// (`tcp_payload ≠ ip_len − ihl − data_offset`).
    BadPayloadLength,
}

impl Corruption {
    /// True when the primitive garbles a checksum and therefore must be
    /// applied after [`Packet::fill_checksums`].
    pub fn breaks_checksum(self) -> bool {
        matches!(self, Corruption::BadTcpChecksum)
    }

    /// Applies the manipulation to `p`.
    pub fn apply(self, p: &mut Packet, ctx: &SeqContext, rng: &mut StdRng) {
        match self {
            Corruption::BadTcpChecksum => {
                p.tcp_mut().checksum ^= rng.gen_range(1u16..=u16::MAX);
            }
            Corruption::BadSeq => {
                p.tcp_mut().seq = ctx
                    .snd_nxt
                    .wrapping_add(rng.gen_range(0x1000_0000u32..0x7000_0000));
            }
            Corruption::UnderflowSeq => {
                p.tcp_mut().seq = ctx.isn.wrapping_sub(rng.gen_range(100_000u32..50_000_000));
            }
            Corruption::PartialInWindowSeq => {
                p.tcp_mut().seq = ctx.snd_nxt.wrapping_add(rng.gen_range(64u32..8_192));
            }
            Corruption::OverlappingSeq => {
                let back = rng
                    .gen_range(1u32..64)
                    .min(ctx.snd_nxt.wrapping_sub(ctx.isn).max(1));
                p.tcp_mut().seq = ctx.snd_nxt.wrapping_sub(back);
            }
            Corruption::BadAck => {
                p.tcp_mut().flags |= TcpFlags::ACK;
                p.tcp_mut().ack = rng.gen::<u32>() | 0x4000_0000;
            }
            Corruption::NoAckFlag => {
                p.tcp_mut().flags = p.tcp_mut().flags & !TcpFlags::ACK;
                p.tcp_mut().ack = 0;
            }
            Corruption::UrgentPointer => {
                p.tcp_mut().urgent = rng.gen_range(1u16..=2048);
            }
            Corruption::Md5Option => {
                let mut digest = [0u8; 16];
                rng.fill(&mut digest);
                p.tcp_mut().options.push(TcpOption::Md5(digest));
                p.tcp_mut().normalize_data_offset();
            }
            Corruption::BadTimestamp => {
                let base = ctx.last_tsval.unwrap_or(1_000_000);
                let old = base.wrapping_sub(rng.gen_range(0x0100_0000u32..0x4000_0000));
                p.tcp_mut()
                    .options
                    .retain(|o| !matches!(o, TcpOption::Timestamps { .. }));
                p.tcp_mut().options.push(TcpOption::Timestamps {
                    tsval: old,
                    tsecr: 0,
                });
                p.tcp_mut().normalize_data_offset();
            }
            Corruption::UtoOption => {
                p.tcp_mut()
                    .options
                    .push(TcpOption::UserTimeout(rng.gen_range(1u16..=0x7fff)));
                p.tcp_mut().normalize_data_offset();
            }
            Corruption::InvalidWScale => {
                p.tcp_mut()
                    .options
                    .retain(|o| !matches!(o, TcpOption::WindowScale(_)));
                p.tcp_mut()
                    .options
                    .push(TcpOption::WindowScale(rng.gen_range(15u8..=200)));
                p.tcp_mut().normalize_data_offset();
            }
            Corruption::LowTtl => {
                p.ipv4_mut().ttl = rng.gen_range(1u8..=4);
            }
            Corruption::DataOffsetTooLarge => {
                let real = (p.tcp_mut().header_len_bytes() / 4) as u8;
                p.tcp_mut().data_offset = rng
                    .gen_range((real + 1).min(15)..=15)
                    .max(real.saturating_add(1).min(15));
            }
            Corruption::DataOffsetTooSmall => {
                p.tcp_mut().data_offset = rng.gen_range(0u8..5);
            }
            Corruption::InvalidFlagsSynFin => {
                p.tcp_mut().flags =
                    TcpFlags::SYN | TcpFlags::FIN | (p.tcp_mut().flags & TcpFlags::ACK);
            }
            Corruption::InvalidFlagsNull => {
                p.tcp_mut().flags = TcpFlags::empty();
                p.tcp_mut().ack = 0;
            }
            Corruption::InvalidFlagsXmas => {
                p.tcp_mut().flags = TcpFlags::FIN | TcpFlags::URG | TcpFlags::PSH;
                p.tcp_mut().ack = 0;
            }
            Corruption::BadIpLenLong => {
                let lied = (p.wire_len() as u16).saturating_add(rng.gen_range(8u16..=1200));
                p.ipv4_mut().total_length = lied;
            }
            Corruption::BadIpLenShort => {
                let hdrs =
                    (p.ipv4_mut().header_len_bytes() + p.tcp_mut().header_len_bytes()) as u16;
                p.ipv4_mut().total_length = hdrs.saturating_sub(rng.gen_range(1u16..=12));
            }
            Corruption::IhlTooLarge => {
                p.ipv4_mut().ihl = rng.gen_range(11u8..=15);
            }
            Corruption::IhlTooSmall => {
                p.ipv4_mut().ihl = rng.gen_range(0u8..5);
            }
            Corruption::InvalidIpVersion => {
                p.ipv4_mut().version = *[0u8, 5, 6, 7, 15].get(rng.gen_range(0..5)).unwrap();
            }
            Corruption::BadPayloadLength => {
                // Lie by a small amount so only the equivalence (#51) and
                // length plausibility break.
                let delta = rng.gen_range(1i32..=64);
                let sign: i32 = if rng.gen_bool(0.5) { 1 } else { -1 };
                let v = p.ipv4_mut().total_length as i32 + sign * delta;
                p.ipv4_mut().total_length = v.clamp(20, 65_535) as u16;
            }
        }
    }

    /// Applies a list of corruptions in the canonical order: structural
    /// manipulations first, fresh checksums, then checksum garbling.
    pub fn apply_all(
        corruptions: &[Corruption],
        p: &mut Packet,
        ctx: &SeqContext,
        rng: &mut StdRng,
    ) {
        for c in corruptions.iter().filter(|c| !c.breaks_checksum()) {
            c.apply(p, ctx, rng);
        }
        p.fill_checksums();
        for c in corruptions.iter().filter(|c| c.breaks_checksum()) {
            c.apply(p, ctx, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_packet::{Ipv4Header, TcpHeader};
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn ctx() -> SeqContext {
        SeqContext {
            isn: 10_000,
            snd_nxt: 15_000,
            last_tsval: Some(500_000),
        }
    }

    fn packet() -> Packet {
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 57);
        let mut tcp = TcpHeader::new(40000, 80, 15_000, 20_000);
        tcp.flags = TcpFlags::ACK | TcpFlags::PSH;
        Packet::new(1.0, ip, tcp, b"payload".to_vec())
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn bad_checksum_invalidates_only_checksum() {
        let mut p = packet();
        Corruption::apply_all(&[Corruption::BadTcpChecksum], &mut p, &ctx(), &mut rng());
        assert!(!p.transport_checksum_valid());
        assert!(p.ip_checksum_valid());
        assert!(p.tcp().data_offset_consistent());
    }

    #[test]
    fn seq_corruptions_land_in_expected_regions() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..20 {
            let mut p = packet();
            Corruption::BadSeq.apply(&mut p, &c, &mut r);
            assert!(p.tcp().seq.wrapping_sub(c.snd_nxt) >= 0x1000_0000);

            let mut p = packet();
            Corruption::UnderflowSeq.apply(&mut p, &c, &mut r);
            assert!((p.tcp().seq.wrapping_sub(c.isn) as i32) < 0);

            let mut p = packet();
            Corruption::PartialInWindowSeq.apply(&mut p, &c, &mut r);
            let d = p.tcp().seq.wrapping_sub(c.snd_nxt);
            assert!((64..=8192).contains(&d));

            let mut p = packet();
            Corruption::OverlappingSeq.apply(&mut p, &c, &mut r);
            assert!((p.tcp().seq.wrapping_sub(c.snd_nxt) as i32) < 0);
        }
    }

    #[test]
    fn option_corruptions_keep_offsets_consistent() {
        for c in [
            Corruption::Md5Option,
            Corruption::BadTimestamp,
            Corruption::UtoOption,
            Corruption::InvalidWScale,
        ] {
            let mut p = packet();
            Corruption::apply_all(&[c], &mut p, &ctx(), &mut rng());
            assert!(p.tcp().data_offset_consistent(), "{c:?} broke data offset");
            assert!(
                p.transport_checksum_valid(),
                "{c:?} should keep checksum valid"
            );
        }
    }

    #[test]
    fn structural_corruptions_break_acceptability() {
        use tcp_state::TcpTracker;
        for c in [
            Corruption::DataOffsetTooLarge,
            Corruption::DataOffsetTooSmall,
            Corruption::BadIpLenLong,
            Corruption::BadIpLenShort,
            Corruption::IhlTooLarge,
            Corruption::IhlTooSmall,
            Corruption::InvalidIpVersion,
            Corruption::InvalidFlagsSynFin,
            Corruption::InvalidFlagsNull,
            Corruption::BadTcpChecksum,
            Corruption::BadPayloadLength,
        ] {
            let mut p = packet();
            Corruption::apply_all(&[c], &mut p, &ctx(), &mut rng());
            assert!(
                !TcpTracker::segment_acceptable(&p, p.checksums()),
                "{c:?} should be endhost-dropped"
            );
        }
    }

    #[test]
    fn bad_timestamp_is_older_than_context() {
        let mut p = packet();
        Corruption::apply_all(&[Corruption::BadTimestamp], &mut p, &ctx(), &mut rng());
        let (tsval, _) = p.tcp().timestamps().unwrap();
        assert!((tsval.wrapping_sub(500_000) as i32) < 0);
    }

    #[test]
    fn low_ttl_in_expected_band() {
        let mut p = packet();
        Corruption::apply_all(&[Corruption::LowTtl], &mut p, &ctx(), &mut rng());
        assert!((1..=4).contains(&p.ipv4().ttl));
        assert!(
            p.ip_checksum_valid(),
            "TTL rewrite must refresh the IP checksum"
        );
    }

    #[test]
    fn combined_corruptions_apply_in_order() {
        let mut p = packet();
        Corruption::apply_all(
            &[Corruption::BadTcpChecksum, Corruption::LowTtl],
            &mut p,
            &ctx(),
            &mut rng(),
        );
        assert!((1..=4).contains(&p.ipv4().ttl));
        assert!(!p.transport_checksum_valid());
        assert!(p.ip_checksum_valid());
    }
}
