//! Packet feature extraction — Table 7 of the paper.
//!
//! Every packet yields:
//!
//! * **32 base features** (Table 7 #1–#32) used as RNN input: direction,
//!   relative SEQ/ACK, data offset, the 9 flag bits one-hot, window,
//!   checksum validities, urgent pointer, payload length, option values
//!   (MSS, TSval/TSecr deltas, WScale, UTO, MD5 presence), timestamps and
//!   the IP-layer fields — all lightly scaled to ≈[0, 1] but otherwise raw
//!   ("minimum feature engineering", §3.3(a));
//! * **19 amplification features** (Table 7 #33–#51): out-of-range
//!   indicators for the 13 numeric TCP and 5 numeric IP features — binary
//!   flags lit when a value falls outside the range observed in benign
//!   training traffic — plus the payload-length equivalence check
//!   `#17 = #26 − #28 − 4·#4`. These amplify perturbations too subtle for
//!   the autoencoder to notice otherwise (§3.3(b)).
//!
//! The out-of-range flags need the benign ranges, so extraction is
//! two-phase: [`extract_connection`] computes base features plus the raw
//! numeric values; the trained [`RangeModel`] then materializes the final
//! 51-dim packet-feature vector.
//!
//! **Indicators.** 33 of the 51 are one-bit indicators, named by
//! [`INDICATOR_MASK`]: direction (#1), the nine TCP flags (#5–#13), both
//! checksum validities (#15, #29), MD5 presence (#23), anomalous IP
//! options (#32), the 18 out-of-range flags (#33–#50) and the length
//! equivalence (#51). Each is written as `bool as u8 as f32` — exactly
//! `0.0` or `1.0` — so a flow's resident profiles keep it as one bit. The
//! other 18 are the scaled numeric features.

use net_packet::{Connection, Direction, IpHeader, Packet, TcpFlags};
use serde::{Deserialize, Serialize};

/// Base (RNN-input) feature count — Table 7 features #1–#32.
pub const NUM_BASE: usize = 32;
/// Raw numeric values tracked for out-of-range amplification (13 TCP + 5 IP).
pub const NUM_RAW: usize = 18;
/// Full packet-feature vector width (#1–#51).
pub const NUM_PACKET: usize = NUM_BASE + NUM_RAW + 1;

/// Per-packet extraction output (before range amplification).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureVector {
    /// Features #1–#32, scaled to ≈[0, 1].
    pub base: Vec<f32>,
    /// Raw numeric values for the 18 out-of-range indicators, in the fixed
    /// order documented on [`RAW_NAMES`].
    pub raw: Vec<f32>,
    /// Whether the payload-length equivalence (#51) holds.
    pub equiv_ok: bool,
}

/// Names for the raw numeric slots (debugging / experiment output).
pub const RAW_NAMES: [&str; NUM_RAW] = [
    "rel_seq",
    "rel_ack",
    "data_offset",
    "window",
    "urgent",
    "payload_len",
    "mss",
    "tsval_delta",
    "tsecr",
    "wscale",
    "uto",
    "tsval",
    "inter_arrival",
    "ip_total_len",
    "ttl",
    "ihl",
    "ip_version",
    "tos",
];

/// Wrapping distance from an initial sequence number, saturated into f32.
fn rel_seq(value: u32, isn: Option<u32>) -> f32 {
    match isn {
        Some(base) => value.wrapping_sub(base) as f32,
        None => 0.0,
    }
}

/// Incremental per-flow feature extraction state: the ISN anchor and
/// previous-timestamp memory [`extract_connection`] keeps per connection,
/// packaged so a streaming scorer can advance it one packet at a time.
/// Feeding a connection's packets through [`push_into`](Self::push_into)
/// in capture order produces exactly the vectors `extract_connection`
/// returns (same code path, so bitwise identical).
///
/// The optional anchors live as raw values plus presence bits rather than
/// `Option`s: sequence numbers and timestamps span the full `u32` range,
/// so presence cannot be encoded in-band, and `Option` padding would
/// nearly double this struct — which sits resident in every flow-table
/// slot at million-flow scale.
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    isn: [u32; 2],
    prev_tsval: [u32; 2],
    prev_time: f64,
    /// Presence bits: 0–1 `isn[d]`, 2–3 `prev_tsval[d]`, 4 `prev_time`.
    present: u8,
}

impl FeatureExtractor {
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, bit: u8, value: u32) -> Option<u32> {
        (self.present & (1 << bit) != 0).then_some(value)
    }

    /// Extracts the next packet's features into a caller-owned
    /// [`FeatureVector`], reusing its buffers — zero allocation once the
    /// vector has been through one call.
    pub fn push_into(&mut self, p: &Packet, dir: Direction, out: &mut FeatureVector) {
        // The first sequence number seen per direction anchors relative
        // SEQ/ACK (for SYNs this is the true ISN). UDP has no sequence
        // space; its anchor stays 0 and the relative slots read 0.
        let d = dir.index();
        if self.present & (1 << d) == 0 {
            self.isn[d] = p.transport.tcp().map_or(0, |t| t.seq);
            self.present |= 1 << d;
        }
        let isn = [self.get(0, self.isn[0]), self.get(1, self.isn[1])];
        let mut prev_tsval = [
            self.get(2, self.prev_tsval[0]),
            self.get(3, self.prev_tsval[1]),
        ];
        let mut prev_time = (self.present & (1 << 4) != 0).then_some(self.prev_time);
        extract_packet_into(p, dir, isn, &mut prev_tsval, &mut prev_time, out);
        for (d, v) in prev_tsval.iter().enumerate() {
            if let Some(v) = v {
                self.prev_tsval[d] = *v;
                self.present |= 1 << (2 + d);
            }
        }
        if let Some(t) = prev_time {
            self.prev_time = t;
            self.present |= 1 << 4;
        }
    }

    /// Allocating convenience wrapper around [`push_into`](Self::push_into).
    pub fn push(&mut self, p: &Packet, dir: Direction) -> FeatureVector {
        let mut fv = FeatureVector {
            base: Vec::with_capacity(NUM_BASE),
            raw: Vec::with_capacity(NUM_RAW),
            equiv_ok: false,
        };
        self.push_into(p, dir, &mut fv);
        fv
    }
}

/// Extracts base features + raw numerics for every packet of a connection.
///
/// Per-connection state (ISNs per direction, previous timestamps) is
/// maintained internally; packets are processed in capture order.
pub fn extract_connection(conn: &Connection) -> Vec<FeatureVector> {
    let mut extractor = FeatureExtractor::new();
    conn.packets
        .iter()
        .enumerate()
        .map(|(i, p)| extractor.push(p, conn.direction(i)))
        .collect()
}

fn extract_packet_into(
    p: &Packet,
    dir: Direction,
    isn: [Option<u32>; 2],
    prev_tsval: &mut [Option<u32>; 2],
    prev_time: &mut Option<f64>,
    out: &mut FeatureVector,
) {
    // TCP-specific slots read 0 for UDP packets — the feature layout is
    // fixed at 51 dims across transports, and a constant-zero slot is
    // exactly what "this protocol has no such field" should look like to
    // the autoencoder.
    let tcp = p.transport.tcp();
    let f = p.tcp_flags();
    let has_ack = f.contains(TcpFlags::ACK);
    let timestamps = tcp.and_then(|t| t.timestamps());

    // --- Raw numeric values -------------------------------------------
    let r_seq = match tcp {
        Some(t) => rel_seq(t.seq, isn[dir.index()]),
        None => 0.0,
    };
    let r_ack = match tcp {
        Some(t) if has_ack => rel_seq(t.ack, isn[dir.flip().index()]),
        _ => 0.0,
    };
    let (tsval, tsecr) = timestamps.unwrap_or((0, 0));
    let ts_delta = match (timestamps, prev_tsval[dir.index()]) {
        (Some((v, _)), Some(prev)) => v.wrapping_sub(prev) as i32 as f32,
        _ => 0.0,
    };
    if let Some((v, _)) = timestamps {
        prev_tsval[dir.index()] = Some(v);
    }
    let iat = match *prev_time {
        Some(t) => (p.timestamp - t).max(0.0) as f32,
        None => 0.0,
    };
    *prev_time = Some(p.timestamp);

    // IP-layer slots, version-erased. The "IHL" slot carries the *claimed*
    // header length in 32-bit words for both versions: the v4 IHL nibble
    // verbatim, or the v6 fixed header plus what the extension chain's
    // `hdr_ext_len` fields claim — so a lying length field surfaces here
    // for either version.
    let claimed_ip_hdr_words = match &p.ip {
        IpHeader::V4(h) => f32::from(h.ihl),
        IpHeader::V6(h) => {
            let claimed: usize = h.ext.iter().map(|e| 8 * (e.hdr_ext_len as usize + 1)).sum();
            (net_packet::ipv6::IPV6_HEADER_LEN + claimed) as f32 / 4.0
        }
    };
    let tos = match &p.ip {
        IpHeader::V4(h) => h.tos,
        IpHeader::V6(h) => h.traffic_class,
    };
    let ip_anomalous_options = match &p.ip {
        IpHeader::V4(h) => h.has_nonstandard_options(),
        IpHeader::V6(h) => h.ext_chain_anomalous(),
    };

    let data_offset = tcp.map_or(0, |t| t.data_offset);
    let window = tcp.map_or(0, |t| t.window);
    let urgent = tcp.map_or(0, |t| t.urgent);
    let mss = tcp.and_then(|t| t.mss()).unwrap_or(0);
    let wscale = tcp.and_then(|t| t.window_scale()).unwrap_or(0);
    let uto = tcp.and_then(|t| t.user_timeout()).unwrap_or(0);

    out.raw.clear();
    out.raw.extend_from_slice(&[
        r_seq,
        r_ack,
        data_offset as f32,
        window as f32,
        urgent as f32,
        p.payload.len() as f32,
        mss as f32,
        ts_delta,
        tsecr as f32,
        wscale as f32,
        uto as f32,
        tsval as f32,
        iat,
        p.ip.total_length_field() as f32,
        p.ip.ttl() as f32,
        claimed_ip_hdr_words,
        p.ip.version_field() as f32,
        tos as f32,
    ]);

    // --- Base features #1..#32, scaled --------------------------------
    // Heavy-tailed quantities are log-compressed: without this, a single
    // large benign value (a long idle gap, a big transfer) dominates the
    // autoencoder's reconstruction error and drowns the one-bit signals
    // the amplification features carry.
    let log_scale = |v: f32, cap: f32| ((1.0 + v.max(0.0)).ln() / (1.0 + cap).ln()).min(1.0);

    out.base.clear();
    let base = &mut out.base;
    base.push((dir == Direction::ServerToClient) as u8 as f32); // #1 direction
    base.push(log_scale(r_seq, u32::MAX as f32)); // #2
    base.push(log_scale(r_ack, u32::MAX as f32)); // #3
    base.push(data_offset as f32 / 15.0); // #4
    for flag in TcpFlags::ALL {
        base.push(f.contains(flag) as u8 as f32); // #5..#13
    }
    base.push(window as f32 / 65_535.0); // #14
    base.push(p.transport_checksum_valid() as u8 as f32); // #15
    base.push(urgent as f32 / 65_535.0); // #16
    base.push((p.payload.len() as f32 / 1500.0).min(2.0) / 2.0); // #17
    base.push(mss as f32 / 1460.0); // #18
    base.push((ts_delta / 1.0e6).clamp(-1.0, 1.0) * 0.5 + 0.5); // #19
    base.push(tsecr as f32 / u32::MAX as f32); // #20
    base.push(wscale as f32 / 14.0); // #21
    base.push((uto as f32 / 600.0).min(2.0) / 2.0); // #22
    base.push(tcp.is_some_and(|t| t.has_md5()) as u8 as f32); // #23
    base.push(tsval as f32 / u32::MAX as f32); // #24
    base.push(log_scale(iat * 1000.0, 60_000.0)); // #25 (log-ms, cap 60 s)
    base.push((p.ip.total_length_field() as f32 / 1500.0).min(2.0) / 2.0); // #26
    base.push(p.ip.ttl() as f32 / 255.0); // #27
    base.push(claimed_ip_hdr_words / 15.0); // #28
    base.push(p.ip_checksum_valid() as u8 as f32); // #29
    base.push(p.ip.version_field() as f32 / 15.0); // #30
    base.push(tos as f32 / 255.0); // #31
    base.push(ip_anomalous_options as u8 as f32); // #32
    debug_assert_eq!(base.len(), NUM_BASE);

    // --- Equivalence relation #51 --------------------------------------
    // TCP/IPv4: payload_len = total_length − 4·IHL − 4·data_offset (the
    // paper's `#17 = #26 − #28 − 4·#4`). The same relation generalizes to
    // v6 (claimed header words) and UDP (the UDP length field must agree
    // both with the IP datagram length and the actual payload). A packet
    // reassembled from *conflicting* overlapping fragments also breaks the
    // equivalence: its byte ranges were claimed twice with different
    // contents, which is precisely the length/content lying this feature
    // exists to expose.
    let ip_payload = p.ip.total_length_field() as i64 - (claimed_ip_hdr_words as i64) * 4;
    let lengths_ok = match &p.transport {
        net_packet::Transport::Tcp(t) => {
            ip_payload - i64::from(t.data_offset) * 4 == p.payload.len() as i64
        }
        net_packet::Transport::Udp(u) => {
            ip_payload == i64::from(u.length) && u.length_consistent(p.payload.len())
        }
    };
    let overlap_conflict = p.reassembly.is_some_and(|r| r.conflicting);
    out.equiv_ok = lengths_ok && !overlap_conflict;
}

/// Benign value ranges for the 18 raw numerics; lights the out-of-range
/// amplification flags (#33–#50) at inference time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RangeModel {
    mins: Vec<f32>,
    maxs: Vec<f32>,
}

/// Raw slots derived from unbounded, wrap-prone counters (relative
/// SEQ/ACK, timestamp values and deltas). On backbone-scale traffic their
/// benign ranges cover essentially the whole value space, so out-of-range
/// amplification is vacuous for them; we disable it outright rather than
/// let small synthetic corpora make these flags unrealistically sharp.
const WRAP_PRONE_SLOTS: [usize; 5] = [0, 1, 7, 8, 11];

impl RangeModel {
    /// Learns per-feature [min, max] over benign packets, widened by a
    /// small tolerance so borderline-benign values do not flap.
    pub fn fit<'a>(packets: impl IntoIterator<Item = &'a FeatureVector>) -> Self {
        let mut mins = vec![f32::INFINITY; NUM_RAW];
        let mut maxs = vec![f32::NEG_INFINITY; NUM_RAW];
        for fv in packets {
            for (i, &v) in fv.raw.iter().enumerate() {
                mins[i] = mins[i].min(v);
                maxs[i] = maxs[i].max(v);
            }
        }
        for i in 0..NUM_RAW {
            if !mins[i].is_finite() {
                mins[i] = 0.0;
                maxs[i] = 0.0;
            }
            let span = (maxs[i] - mins[i]).abs().max(1.0);
            mins[i] -= span * 0.01;
            maxs[i] += span * 0.01;
        }
        for slot in WRAP_PRONE_SLOTS {
            // Finite sentinels (JSON cannot carry infinities): no raw value
            // ever falls outside [f32::MIN, f32::MAX].
            mins[slot] = f32::MIN;
            maxs[slot] = f32::MAX;
        }
        RangeModel { mins, maxs }
    }

    /// The learned `[mins, maxs]`, one entry per raw slot.
    pub(crate) fn bounds(&self) -> [&[f32]; 2] {
        [&self.mins, &self.maxs]
    }

    /// True when raw slot `i` is outside the benign range.
    pub fn out_of_range(&self, i: usize, v: f32) -> bool {
        v < self.mins[i] || v > self.maxs[i]
    }

    /// Materializes the full 51-dim packet-feature vector
    /// (#1–#32 base, #33–#50 out-of-range flags, #51 equivalence).
    pub fn packet_features(&self, fv: &FeatureVector) -> Vec<f32> {
        let mut out = vec![0.0; NUM_PACKET];
        self.write_packet_features(fv, &mut out);
        out
    }

    /// Allocation-free variant of [`packet_features`](Self::packet_features):
    /// writes the 51 values into a caller-owned slice (e.g. a profile-matrix
    /// row), so the scoring hot path reuses one buffer per worker. The
    /// slots of [`INDICATOR_MASK`] read exactly `0.0` or `1.0`.
    pub fn write_packet_features(&self, fv: &FeatureVector, out: &mut [f32]) {
        debug_assert_eq!(out.len(), NUM_PACKET);
        out[..NUM_BASE].copy_from_slice(&fv.base);
        for (i, &v) in fv.raw.iter().enumerate() {
            out[NUM_BASE + i] = self.out_of_range(i, v) as u8 as f32;
        }
        out[NUM_PACKET - 1] = fv.equiv_ok as u8 as f32;
    }
}

/// The packet-feature slots [`RangeModel::write_packet_features`] writes
/// as one-bit indicators (`bool as u8 as f32`), bit `i` for slot `i`:
/// direction (0), the TCP flags (4–12), the transport checksum validity
/// (14), MD5 presence (22), the IP checksum validity (28), anomalous IP
/// options (31), the out-of-range flags (32–49) and the length
/// equivalence (50).
pub const INDICATOR_MASK: u64 =
    1 | 0x1ff << 4 | 1 << 14 | 1 << 22 | 1 << 28 | 1 << 31 | ((1 << (NUM_RAW + 1)) - 1) << NUM_BASE;
/// How many slots [`INDICATOR_MASK`] names.
pub const NUM_INDICATORS: usize = 33;
const _: () = assert!(
    INDICATOR_MASK.count_ones() as usize == NUM_INDICATORS && INDICATOR_MASK >> NUM_PACKET == 0,
    "33 indicator slots, all packet features"
);

#[cfg(test)]
mod tests {
    use super::*;
    use net_packet::{Endpoint, FlowKey, Ipv4Header, TcpHeader, TcpOption};
    use std::net::Ipv4Addr;

    fn test_conn() -> Connection {
        let key = FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40000),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 443),
        );
        let mut conn = Connection::new(key);
        let mk = |dir: Direction, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8], ts: f64| {
            let (src, dst) = match dir {
                Direction::ClientToServer => (key.client, key.server),
                Direction::ServerToClient => (key.server, key.client),
            };
            let v4 = |a: std::net::IpAddr| match a {
                std::net::IpAddr::V4(v) => v,
                std::net::IpAddr::V6(_) => unreachable!("test key is IPv4"),
            };
            let ip = Ipv4Header::new(v4(src.addr), v4(dst.addr), 57);
            let mut tcp = TcpHeader::new(src.port, dst.port, seq, ack);
            tcp.flags = flags;
            Packet::new(ts, ip, tcp, payload.to_vec())
        };
        conn.packets.push(mk(
            Direction::ClientToServer,
            TcpFlags::SYN,
            1000,
            0,
            &[],
            0.0,
        ));
        conn.packets.push(mk(
            Direction::ServerToClient,
            TcpFlags::SYN | TcpFlags::ACK,
            9000,
            1001,
            &[],
            0.01,
        ));
        conn.packets.push(mk(
            Direction::ClientToServer,
            TcpFlags::ACK,
            1001,
            9001,
            &[],
            0.02,
        ));
        conn.packets.push(mk(
            Direction::ClientToServer,
            TcpFlags::ACK | TcpFlags::PSH,
            1001,
            9001,
            b"hello",
            0.03,
        ));
        conn
    }

    #[test]
    fn feature_widths() {
        let fvs = extract_connection(&test_conn());
        assert_eq!(fvs.len(), 4);
        for fv in &fvs {
            assert_eq!(fv.base.len(), NUM_BASE);
            assert_eq!(fv.raw.len(), NUM_RAW);
        }
        let rm = RangeModel::fit(&fvs);
        assert_eq!(rm.packet_features(&fvs[0]).len(), NUM_PACKET);
    }

    #[test]
    fn direction_and_flags_encoded() {
        let fvs = extract_connection(&test_conn());
        assert_eq!(fvs[0].base[0], 0.0); // c2s
        assert_eq!(fvs[1].base[0], 1.0); // s2c
                                         // #5..#13 one-hot: SYN is the 2nd flag (index 1).
        assert_eq!(fvs[0].base[4 + 1], 1.0);
        assert_eq!(fvs[0].base[4], 0.0); // FIN off
                                         // SYN-ACK sets both SYN (idx 1) and ACK (idx 4).
        assert_eq!(fvs[1].base[4 + 1], 1.0);
        assert_eq!(fvs[1].base[4 + 4], 1.0);
    }

    #[test]
    fn relative_seq_starts_at_zero_and_grows() {
        let fvs = extract_connection(&test_conn());
        assert_eq!(fvs[0].raw[0], 0.0); // first client packet anchors ISN
        assert_eq!(fvs[2].raw[0], 1.0); // +1 after SYN
        assert_eq!(fvs[3].raw[5], 5.0); // payload length
    }

    #[test]
    fn checksum_validity_features() {
        let mut conn = test_conn();
        conn.packets[3].tcp_mut().checksum ^= 0xbad;
        let fvs = extract_connection(&conn);
        assert_eq!(fvs[3].base[14], 0.0); // #15 invalid
        assert_eq!(fvs[2].base[14], 1.0);
    }

    #[test]
    fn equivalence_feature_detects_length_lies() {
        let mut conn = test_conn();
        assert!(extract_connection(&conn)[3].equiv_ok);
        conn.packets[3].ipv4_mut().total_length += 7;
        assert!(!extract_connection(&conn)[3].equiv_ok);
    }

    #[test]
    fn range_model_flags_outliers() {
        let fvs = extract_connection(&test_conn());
        let rm = RangeModel::fit(&fvs);
        // TTL (raw slot 14) was 57 everywhere; 3 is out of range.
        assert!(rm.out_of_range(14, 3.0));
        assert!(!rm.out_of_range(14, 57.0));
        // IP version (slot 16) was 4; 5 is out of range.
        assert!(rm.out_of_range(16, 5.0));
    }

    #[test]
    fn md5_and_urgent_features() {
        let mut conn = test_conn();
        let p = conn.packets[3].clone();
        let mut tcp = p.tcp().clone();
        tcp.options.push(TcpOption::Md5([1; 16]));
        tcp.urgent = 5;
        conn.packets[3] = Packet::new(p.timestamp, p.ipv4().clone(), tcp, p.payload.clone());
        let fvs = extract_connection(&conn);
        assert_eq!(fvs[3].base[22], 1.0); // #23 MD5 present
        assert!(fvs[3].base[15] > 0.0); // #16 urgent pointer
    }

    #[test]
    fn protocol_udp_features_zero_tcp_slots() {
        use net_packet::UdpHeader;
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 57);
        let p = Packet::new_udp(0.0, ip, UdpHeader::new(40000, 53), b"query".to_vec());
        let mut ex = FeatureExtractor::new();
        let fv = ex.push(&p, Direction::ClientToServer);
        assert_eq!(fv.base.len(), NUM_BASE);
        assert_eq!(fv.raw.len(), NUM_RAW);
        // TCP-only slots are zero: rel seq/ack, data offset, window, urgent.
        for slot in [0, 1, 2, 3, 4] {
            assert_eq!(fv.raw[slot], 0.0, "raw slot {slot}");
        }
        // Flag one-hots (#5..#13) all off.
        for i in 4..13 {
            assert_eq!(fv.base[i], 0.0, "base #{}", i + 1);
        }
        assert_eq!(fv.raw[5], 5.0); // payload length is real
        assert_eq!(fv.base[14], 1.0); // #15 checksum valid
        assert!(fv.equiv_ok, "consistent UDP lengths satisfy #51");
        // A lying UDP length breaks the equivalence.
        let mut bad = p.clone();
        bad.udp_mut().length += 3;
        let fv = FeatureExtractor::new().push(&bad, Direction::ClientToServer);
        assert!(!fv.equiv_ok);
    }

    #[test]
    fn protocol_v6_features_fill_ip_slots() {
        use net_packet::{Ipv6ExtHeader, Ipv6Header};
        use std::net::Ipv6Addr;
        let mut ip = Ipv6Header::new(
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
            61,
        );
        let tcp = TcpHeader::new(40000, 443, 1, 0);
        let plain = Packet::new_v6(0.0, ip.clone(), tcp.clone(), vec![]);
        let fv = FeatureExtractor::new().push(&plain, Direction::ClientToServer);
        assert_eq!(fv.raw[16], 6.0); // version slot
        assert_eq!(fv.raw[14], 61.0); // hop limit in the TTL slot
        assert_eq!(fv.raw[15], 10.0); // 40-byte fixed header = 10 words
        assert_eq!(fv.base[31], 0.0); // #32: no extensions
        assert!(fv.equiv_ok);

        // An extension chain lights the anomalous-options channel and
        // widens the claimed-header slot.
        ip.next_header = net_packet::ipv6::EXT_HOP_BY_HOP;
        ip.ext = vec![Ipv6ExtHeader::well_formed(
            net_packet::ipv4::PROTO_TCP,
            0,
            vec![],
        )];
        let with_ext = Packet::new_v6(0.0, ip, tcp, vec![]);
        let fv = FeatureExtractor::new().push(&with_ext, Direction::ClientToServer);
        assert_eq!(fv.base[31], 1.0); // #32
        assert_eq!(fv.raw[15], 12.0); // +8 bytes = +2 words
        assert!(fv.equiv_ok, "well-formed ext chain keeps #51 intact");
    }

    #[test]
    fn protocol_conflicting_reassembly_breaks_equivalence() {
        let mut conn = test_conn();
        assert!(extract_connection(&conn)[3].equiv_ok);
        conn.packets[3].reassembly = Some(net_packet::ReassemblyInfo {
            fragments: 3,
            overlapped: true,
            conflicting: true,
        });
        assert!(!extract_connection(&conn)[3].equiv_ok);
        // Benign duplicate overlap (no conflicting bytes) is not punished.
        conn.packets[3].reassembly = Some(net_packet::ReassemblyInfo {
            fragments: 2,
            overlapped: true,
            conflicting: false,
        });
        assert!(extract_connection(&conn)[3].equiv_ok);
    }

    #[test]
    fn timestamp_delta_neutral_without_option() {
        let fvs = extract_connection(&test_conn());
        for fv in &fvs {
            assert_eq!(fv.base[18], 0.5); // #19 centred when no TS option
        }
    }
}
