//! The conntrack-style tracker and window validator.

use net_packet::{ipv4, Checksums, Direction, IpHeader, Packet, TcpFlags, Transport};
use serde::{Deserialize, Serialize};

/// Master TCP connection states, following the alphabet of Linux
/// `nf_conntrack_proto_tcp` (the module the paper instruments), which views
/// the connection from the middle rather than from one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum TcpState {
    /// No connection tracked yet.
    None = 0,
    /// Original-direction SYN seen.
    SynSent = 1,
    /// Simultaneous open: SYNs seen in both directions.
    SynSent2 = 2,
    /// SYN-ACK seen from the responder.
    SynRecv = 3,
    /// Three-way handshake complete.
    Established = 4,
    /// First FIN seen.
    FinWait = 5,
    /// First FIN acknowledged; waiting for the second FIN.
    CloseWait = 6,
    /// Both FINs seen before either was acknowledged (simultaneous close).
    Closing = 7,
    /// Second FIN seen; waiting for its acknowledgment.
    LastAck = 8,
    /// Orderly close complete (both FINs acked).
    TimeWait = 9,
    /// Connection torn down (RST, or reuse after TimeWait).
    Close = 10,
}

impl TcpState {
    /// All states in index order.
    pub const ALL: [TcpState; 11] = [
        TcpState::None,
        TcpState::SynSent,
        TcpState::SynSent2,
        TcpState::SynRecv,
        TcpState::Established,
        TcpState::FinWait,
        TcpState::CloseWait,
        TcpState::Closing,
        TcpState::LastAck,
        TcpState::TimeWait,
        TcpState::Close,
    ];

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            TcpState::None => "NONE",
            TcpState::SynSent => "SYN_SENT",
            TcpState::SynSent2 => "SYN_SENT2",
            TcpState::SynRecv => "SYN_RECV",
            TcpState::Established => "ESTABLISHED",
            TcpState::FinWait => "FIN_WAIT",
            TcpState::CloseWait => "CLOSE_WAIT",
            TcpState::Closing => "CLOSING",
            TcpState::LastAck => "LAST_ACK",
            TcpState::TimeWait => "TIME_WAIT",
            TcpState::Close => "CLOSE",
        }
    }
}

impl std::fmt::Display for TcpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-packet label CLAP trains its RNN on: the master state the
/// machine transitions to as a result of the packet, plus the subtle
/// in-/out-of-window verdict (paper §3.3(a), footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StateLabel {
    pub state: TcpState,
    pub in_window: bool,
}

impl StateLabel {
    /// Index into the 22-class label space.
    pub fn class_index(self) -> usize {
        self.state as usize * 2 + usize::from(!self.in_window)
    }

    /// Inverse of [`class_index`](Self::class_index).
    pub fn from_class_index(idx: usize) -> StateLabel {
        let state = TcpState::ALL[(idx / 2).min(10)];
        StateLabel {
            state,
            in_window: idx.is_multiple_of(2),
        }
    }
}

impl std::fmt::Display for StateLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}",
            self.state,
            if self.in_window { "IN" } else { "OUT" }
        )
    }
}

/// Sequence-number comparison helpers (RFC 793 §3.3, mod-2^32 arithmetic).
#[inline]
fn seq_lte(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) as i32 >= 0
}

/// Maximum plausible distance between an acknowledgment and the highest
/// sequence we have seen, mirroring conntrack's MAXACKWINDOW idea. Benign
/// acks trail the sender by at most a window; adversarial "Bad ACK Num"
/// values are (with overwhelming probability) far outside this range.
const MAX_ACK_LAG: u32 = 1 << 22; // 4 MiB

/// Presence bits for [`PeerState`]'s optional fields. Sequence and
/// timestamp values span the full `u32` range, so presence cannot be
/// encoded in-band with a sentinel; a flag byte keeps the struct at 20
/// bytes where three `Option<u32>`s would pad it to 32 — the tracker
/// lives in every flow-table slot, so at million-flow scale the padding
/// alone would cost tens of megabytes.
const HAS_ISN: u8 = 1;
const HAS_TS_RECENT: u8 = 1 << 1;
const HAS_FIN_SEQ: u8 = 1 << 2;

#[derive(Debug, Clone, Default)]
struct PeerState {
    /// Initial sequence number (first SYN seen from this direction).
    isn: u32,
    /// Next sequence expected from this direction (highest seg_end seen).
    seq_nxt: u32,
    /// Highest timestamp value seen from this direction (PAWS).
    ts_recent: u32,
    /// Sequence just past this direction's FIN, once one was accepted.
    fin_seq: u32,
    /// Last raw window advertised by this direction.
    window: u16,
    /// Window-scale shift negotiated by this direction (applies once both
    /// sides offered the option).
    wscale: u8,
    /// `HAS_*` presence bits for the three optional fields above.
    present: u8,
}

impl PeerState {
    fn isn(&self) -> Option<u32> {
        (self.present & HAS_ISN != 0).then_some(self.isn)
    }

    fn ts_recent(&self) -> Option<u32> {
        (self.present & HAS_TS_RECENT != 0).then_some(self.ts_recent)
    }

    fn fin_seq(&self) -> Option<u32> {
        (self.present & HAS_FIN_SEQ != 0).then_some(self.fin_seq)
    }
}

/// Middlebox-viewpoint TCP connection tracker.
///
/// Feed packets in capture order with their direction; each call returns the
/// 22-class [`StateLabel`]. The tracker is deliberately *rigorous* — it
/// validates checksums, header-structure consistency and sequence windows
/// like an endhost — because CLAP's labels must reflect what the protocol
/// actually does with a packet, not what a lenient DPI believes.
///
/// It keeps only what its labels read — no packet counter: whoever feeds
/// it counts packets if it needs to (a flow-table slot does).
#[derive(Debug, Clone)]
pub struct TcpTracker {
    state: TcpState,
    /// Direction of the first SYN (conntrack's "original" direction).
    orig: Option<Direction>,
    /// Direction that sent the first FIN.
    fin_dir: Option<Direction>,
    peers: [PeerState; 2],
    /// Whether window scaling is active (both sides offered it).
    wscale_ok: bool,
}

impl Default for TcpTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTracker {
    pub fn new() -> Self {
        TcpTracker {
            state: TcpState::None,
            orig: None,
            fin_dir: None,
            peers: [PeerState::default(), PeerState::default()],
            wscale_ok: false,
        }
    }

    /// Current master state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Structural acceptability: would a rigorous endhost even parse this
    /// packet? Checks checksums (`sums`, the packet's
    /// [`Packet::checksums`]), version, header-length and datagram-length
    /// consistency and (for TCP) illegal flag combinations. Unacceptable
    /// packets are dropped without any state change — precisely the
    /// discrepancy evasion attacks exploit against lenient DPIs.
    pub fn segment_acceptable(p: &Packet, sums: Checksums) -> bool {
        let ip_ok = match &p.ip {
            IpHeader::V4(h) => h.version == 4 && h.ihl_consistent(),
            // v6 has no IHL; the analogous structural lie is a malformed
            // extension chain (misplaced Hop-by-Hop, lying hdr_ext_len).
            IpHeader::V6(h) => h.version == 6 && !h.ext_chain_malformed(),
        };
        let transport_ok = match &p.transport {
            Transport::Tcp(t) => {
                let f = t.flags;
                t.data_offset_consistent()
                    && f.0 != 0 // null scan
                    && !(f.contains(TcpFlags::SYN) && f.contains(TcpFlags::FIN))
                    && !(f.contains(TcpFlags::SYN) && f.contains(TcpFlags::RST))
            }
            Transport::Udp(u) => u.length_consistent(p.payload.len()),
        };
        ip_ok
            && p.ip.total_length_field() == p.wire_len()
            && transport_ok
            && sums.ip
            && sums.transport
    }

    fn scaled_window(&self, dir: Direction) -> u32 {
        let ps = &self.peers[dir.index()];
        let shift = if self.wscale_ok { ps.wscale.min(14) } else { 0 };
        u32::from(ps.window) << shift
    }

    /// Sequence acceptance: does the segment overlap the receiver's window?
    /// A one-byte grace below `rcv_nxt` admits keepalive probes.
    fn seq_ok(&self, p: &Packet, dir: Direction) -> bool {
        let ps = &self.peers[dir.index()];
        let syn = p.tcp().flags.contains(TcpFlags::SYN);
        if self.state == TcpState::None {
            // Nothing tracked: only an opening SYN "belongs".
            return syn && !p.tcp().flags.contains(TcpFlags::ACK);
        }
        if matches!(self.state, TcpState::TimeWait | TcpState::Close)
            && syn
            && !p.tcp().flags.contains(TcpFlags::ACK)
        {
            // Connection reuse: a fresh SYN after close starts over, so the
            // old sequence space does not constrain it.
            return true;
        }
        if ps.isn().is_none() {
            // First packet we see from this direction mid-connection
            // (e.g. the responder's SYN-ACK): nothing to violate yet.
            return true;
        }
        let rcv_nxt = ps.seq_nxt;
        let rwin = self.scaled_window(dir.flip()).max(1);
        let seg_seq = p.tcp().seq;
        let seg_end = seg_seq.wrapping_add(p.seq_len());
        let ok_low = seq_lte(rcv_nxt.wrapping_sub(1), seg_end);
        let ok_high = seq_lte(seg_seq, rcv_nxt.wrapping_add(rwin));
        ok_low && ok_high
    }

    /// Acknowledgment plausibility: the ack must not exceed what the other
    /// side has sent, nor trail it by more than `MAX_ACK_LAG`.
    fn ack_ok(&self, p: &Packet, dir: Direction) -> bool {
        if !p.tcp().flags.contains(TcpFlags::ACK) {
            return true;
        }
        let other = &self.peers[dir.flip().index()];
        if other.isn().is_none() {
            // Acking a direction we have never seen: cannot belong
            // (e.g. a SYN-ACK injected before any SYN).
            return self.state == TcpState::None;
        }
        let lag = other.seq_nxt.wrapping_sub(p.tcp().ack);
        (lag as i32) >= 0 && lag <= MAX_ACK_LAG
    }

    /// PAWS-style timestamp monotonicity for this direction.
    fn ts_ok(&self, p: &Packet, dir: Direction) -> bool {
        let Some((tsval, _)) = p.tcp().timestamps() else {
            return true;
        };
        match self.peers[dir.index()].ts_recent() {
            Some(recent) => seq_lte(recent, tsval),
            Option::None => true,
        }
    }

    fn acks_fin_of(&self, p: &Packet, fin_owner: Direction) -> bool {
        match self.peers[fin_owner.index()].fin_seq() {
            Some(fs) => p.tcp().flags.contains(TcpFlags::ACK) && seq_lte(fs, p.tcp().ack),
            Option::None => false,
        }
    }

    /// Processes one packet, returning its 22-class label.
    pub fn process(&mut self, p: &Packet, dir: Direction) -> StateLabel {
        self.process_with(p, dir, p.checksums())
    }

    /// [`process`](Self::process) with the packet's checksum verdicts
    /// already computed.
    pub fn process_with(&mut self, p: &Packet, dir: Direction, sums: Checksums) -> StateLabel {
        use TcpState::*;
        if !p.is_tcp() {
            // A non-TCP packet on a TCP-tracked flow (e.g. a corrupted
            // protocol field steering a UDP datagram into the tuple) can
            // never belong to the connection's sequence space.
            return StateLabel {
                state: self.state,
                in_window: false,
            };
        }

        if !Self::segment_acceptable(p, sums) {
            // A rigorous endhost drops the packet: no transition, and by
            // definition the packet does not belong in the window.
            return StateLabel {
                state: self.state,
                in_window: false,
            };
        }

        let f = p.tcp().flags;
        let syn = f.contains(TcpFlags::SYN);
        let ack = f.contains(TcpFlags::ACK);
        let fin = f.contains(TcpFlags::FIN);
        let rst = f.contains(TcpFlags::RST);

        let seq_ok = self.seq_ok(p, dir);
        let ack_ok = self.ack_ok(p, dir);
        let ts_ok = self.ts_ok(p, dir);
        let in_window = seq_ok && ack_ok && ts_ok;
        // A segment only advances the machine when it belongs.
        let accept = in_window;

        let next = match self.state {
            None | Close | TimeWait if syn && !ack && accept => {
                // Open (or reopen after close/time-wait): reset everything.
                let fresh_orig = dir;
                *self = TcpTracker::new();
                self.orig = Some(fresh_orig);
                SynSent
            }
            None | Close => self.state,
            SynSent => {
                if rst && accept {
                    Close
                } else if syn && ack && accept && Some(dir) != self.orig {
                    SynRecv
                } else if syn && !ack && accept && Some(dir) != self.orig {
                    SynSent2
                } else {
                    SynSent
                }
            }
            SynSent2 => {
                if rst && accept {
                    Close
                } else if syn && ack && accept {
                    SynRecv
                } else {
                    SynSent2
                }
            }
            SynRecv => {
                if rst && accept {
                    Close
                } else if ack && !syn && !fin && accept && Some(dir) == self.orig {
                    Established
                } else if fin && accept {
                    // FIN straight out of the handshake (rare but legal).
                    self.fin_dir = Some(dir);
                    FinWait
                } else {
                    SynRecv
                }
            }
            Established => {
                if rst && accept {
                    Close
                } else if fin && accept {
                    self.fin_dir = Some(dir);
                    FinWait
                } else {
                    Established
                }
            }
            FinWait => {
                let fin_owner = self.fin_dir.unwrap_or(Direction::ClientToServer);
                if rst && accept {
                    Close
                } else if fin && accept && dir != fin_owner {
                    Closing
                } else if accept && dir != fin_owner && self.acks_fin_of(p, fin_owner) {
                    CloseWait
                } else {
                    FinWait
                }
            }
            CloseWait => {
                let fin_owner = self.fin_dir.unwrap_or(Direction::ClientToServer);
                if rst && accept {
                    Close
                } else if fin && accept && dir != fin_owner {
                    LastAck
                } else {
                    CloseWait
                }
            }
            Closing => {
                let second_fin_owner = self.fin_dir.unwrap_or(Direction::ClientToServer).flip();
                if rst && accept {
                    Close
                } else if accept && self.acks_fin_of(p, second_fin_owner) {
                    TimeWait
                } else {
                    Closing
                }
            }
            LastAck => {
                let second_fin_owner = self.fin_dir.unwrap_or(Direction::ClientToServer).flip();
                if rst && accept {
                    Close
                } else if accept && dir != second_fin_owner && self.acks_fin_of(p, second_fin_owner)
                {
                    TimeWait
                } else {
                    LastAck
                }
            }
            TimeWait => {
                if rst && accept {
                    Close
                } else {
                    TimeWait
                }
            }
        };
        self.state = next;

        if accept {
            self.update_peer(p, dir, syn, fin);
        }

        StateLabel {
            state: self.state,
            in_window,
        }
    }

    fn update_peer(&mut self, p: &Packet, dir: Direction, syn: bool, fin: bool) {
        let seg_end = p.tcp().seq.wrapping_add(p.seq_len());
        // Window scaling becomes active only when both sides offer it.
        if syn {
            if let Some(ws) = p.tcp().window_scale() {
                self.peers[dir.index()].wscale = ws;
                let other_offered = self.peers[dir.flip().index()].wscale > 0
                    || self.peers[dir.flip().index()].isn().is_none();
                // Activate tentatively; corrected when the other SYN arrives.
                self.wscale_ok = other_offered;
            }
        }
        let ps = &mut self.peers[dir.index()];
        if syn && ps.isn().is_none() {
            ps.isn = p.tcp().seq;
            ps.present |= HAS_ISN;
            ps.seq_nxt = seg_end;
        } else if seq_lte(ps.seq_nxt, seg_end) {
            ps.seq_nxt = seg_end;
        }
        ps.window = p.tcp().window;
        if let Some((tsval, _)) = p.tcp().timestamps() {
            match ps.ts_recent() {
                Some(r) if seq_lte(tsval, r) => {}
                _ => {
                    ps.ts_recent = tsval;
                    ps.present |= HAS_TS_RECENT;
                }
            }
        }
        if fin && ps.fin_seq().is_none() {
            ps.fin_seq = seg_end;
            ps.present |= HAS_FIN_SEQ;
        }
    }
}

/// Idle-only lifecycle tracker for UDP flows.
///
/// UDP has no state machine: conntrack considers a UDP flow "established"
/// from its first datagram and tears it down purely by idle timeout. The
/// label alphabet is shared with TCP, so every datagram maps to
/// `Established`, and the in-window bit carries the only per-packet signal
/// UDP offers: whether the datagram is structurally plausible (length field
/// agrees with the payload, checksum validates, IP header is consistent).
/// There is never a transition to `Close`/`TimeWait` — eviction is the flow
/// table's idle policy, not the tracker's.
#[derive(Debug, Clone, Default)]
pub struct UdpTracker;

impl UdpTracker {
    pub fn new() -> Self {
        UdpTracker
    }

    /// Processes one datagram, whose checksum verdicts are `sums`. A TCP
    /// segment arriving on a UDP-tracked flow is a transport mismatch and
    /// never "belongs".
    pub fn process_with(&mut self, p: &Packet, _dir: Direction, sums: Checksums) -> StateLabel {
        StateLabel {
            state: TcpState::Established,
            in_window: p.is_udp() && TcpTracker::segment_acceptable(p, sums),
        }
    }
}

/// Fallback tracker for flows whose protocol is neither TCP nor UDP.
///
/// Unreachable from parsed captures today (the wire parser only admits
/// TCP and UDP), but [`FlowTracker::for_proto`] is total over the protocol
/// byte, and a flow keyed by a corrupted protocol field must still label
/// every packet. Mirrors the UDP idle-only lifecycle with the structural
/// checks of whatever transport the packet actually carries.
#[derive(Debug, Clone, Default)]
pub struct GenericTracker;

impl GenericTracker {
    pub fn new() -> Self {
        GenericTracker
    }

    /// Processes one packet, whose checksum verdicts are `sums`.
    pub fn process_with(&mut self, p: &Packet, _dir: Direction, sums: Checksums) -> StateLabel {
        StateLabel {
            state: TcpState::Established,
            in_window: TcpTracker::segment_acceptable(p, sums),
        }
    }
}

/// Per-flow tracker dispatching on the flow's transport protocol.
///
/// The flow table stores one of these per slot; [`FlowTracker::for_proto`]
/// picks the lifecycle from the protocol byte carried in the flow key
/// (which is derived from the packet's *structural* transport, not the
/// corruptible IP protocol field).
#[derive(Debug, Clone)]
pub enum FlowTracker {
    Tcp(TcpTracker),
    Udp(UdpTracker),
    Generic(GenericTracker),
}

// A flow-table slot holds one tracker per live flow: the UDP and generic
// lifecycles keep nothing, and the enum's tag sits in a niche of
// `TcpTracker`'s fields, so a tracker costs exactly its TCP state.
const _: () = {
    assert!(std::mem::size_of::<TcpTracker>() == 44);
    assert!(std::mem::size_of::<FlowTracker>() == 44);
};

impl FlowTracker {
    /// Tracker for the given IP protocol number.
    pub fn for_proto(proto: u8) -> Self {
        match proto {
            ipv4::PROTO_TCP => FlowTracker::Tcp(TcpTracker::new()),
            ipv4::PROTO_UDP => FlowTracker::Udp(UdpTracker::new()),
            _ => FlowTracker::Generic(GenericTracker::new()),
        }
    }

    /// Processes one packet, returning its 22-class label.
    pub fn process(&mut self, p: &Packet, dir: Direction) -> StateLabel {
        self.process_with(p, dir, p.checksums())
    }

    /// [`process`](Self::process) with the packet's checksum verdicts
    /// already computed, for a caller that reads them elsewhere too.
    pub fn process_with(&mut self, p: &Packet, dir: Direction, sums: Checksums) -> StateLabel {
        match self {
            FlowTracker::Tcp(t) => t.process_with(p, dir, sums),
            FlowTracker::Udp(t) => t.process_with(p, dir, sums),
            FlowTracker::Generic(t) => t.process_with(p, dir, sums),
        }
    }

    /// The TCP master state, when this flow has one. `None` for UDP and
    /// generic flows, whose idle-only lifecycle has no teardown states —
    /// callers watching for `Close`/`TimeWait` to evict a flow must fall
    /// back to idle timeouts for those.
    pub fn tcp_state(&self) -> Option<TcpState> {
        match self {
            FlowTracker::Tcp(t) => Some(t.state()),
            FlowTracker::Udp(_) | FlowTracker::Generic(_) => None,
        }
    }
}

/// Labels every packet of a connection with a fresh tracker chosen by the
/// flow key's transport protocol.
pub fn label_connection(conn: &net_packet::Connection) -> Vec<StateLabel> {
    let mut tracker = FlowTracker::for_proto(conn.key.proto);
    conn.packets
        .iter()
        .enumerate()
        .map(|(i, p)| tracker.process(p, conn.direction(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_packet::{Endpoint, FlowKey, Ipv4Header, TcpHeader, TcpOption};
    use std::net::Ipv4Addr;

    const CLIENT_ISN: u32 = 1_000_000;
    const SERVER_ISN: u32 = 5_000_000;

    fn key() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40000),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 443),
        )
    }

    fn v4(a: std::net::IpAddr) -> Ipv4Addr {
        match a {
            std::net::IpAddr::V4(v) => v,
            std::net::IpAddr::V6(_) => unreachable!("test key is IPv4"),
        }
    }

    struct Builder {
        key: FlowKey,
        tracker: TcpTracker,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                key: key(),
                tracker: TcpTracker::new(),
            }
        }

        /// Headers for a segment in `dir`, for tests that tweak options or
        /// fields before building the packet.
        fn parts(
            &self,
            dir: Direction,
            flags: TcpFlags,
            seq: u32,
            ackn: u32,
        ) -> (Ipv4Header, TcpHeader) {
            let (src, dst) = match dir {
                Direction::ClientToServer => (self.key.client, self.key.server),
                Direction::ServerToClient => (self.key.server, self.key.client),
            };
            let ip = Ipv4Header::new(v4(src.addr), v4(dst.addr), 64);
            let mut tcp = TcpHeader::new(src.port, dst.port, seq, ackn);
            tcp.flags = flags;
            (ip, tcp)
        }

        fn packet(
            &self,
            dir: Direction,
            flags: TcpFlags,
            seq: u32,
            ackn: u32,
            payload: &[u8],
        ) -> Packet {
            let (ip, tcp) = self.parts(dir, flags, seq, ackn);
            Packet::new(0.0, ip, tcp, payload.to_vec())
        }

        fn feed(
            &mut self,
            dir: Direction,
            flags: TcpFlags,
            seq: u32,
            ackn: u32,
            payload: &[u8],
        ) -> StateLabel {
            let p = self.packet(dir, flags, seq, ackn, payload);
            self.tracker.process(&p, dir)
        }

        /// Runs the three-way handshake; leaves the tracker ESTABLISHED.
        fn handshake(&mut self) {
            use Direction::*;
            let l1 = self.feed(ClientToServer, TcpFlags::SYN, CLIENT_ISN, 0, &[]);
            assert_eq!(
                l1,
                StateLabel {
                    state: TcpState::SynSent,
                    in_window: true
                }
            );
            let l2 = self.feed(
                ServerToClient,
                TcpFlags::SYN | TcpFlags::ACK,
                SERVER_ISN,
                CLIENT_ISN + 1,
                &[],
            );
            assert_eq!(
                l2,
                StateLabel {
                    state: TcpState::SynRecv,
                    in_window: true
                }
            );
            let l3 = self.feed(
                ClientToServer,
                TcpFlags::ACK,
                CLIENT_ISN + 1,
                SERVER_ISN + 1,
                &[],
            );
            assert_eq!(
                l3,
                StateLabel {
                    state: TcpState::Established,
                    in_window: true
                }
            );
        }
    }

    use Direction::{ClientToServer as C2S, ServerToClient as S2C};

    #[test]
    fn class_index_round_trip() {
        for idx in 0..crate::NUM_CLASSES {
            assert_eq!(StateLabel::from_class_index(idx).class_index(), idx);
        }
    }

    #[test]
    fn handshake_reaches_established() {
        let mut b = Builder::new();
        b.handshake();
        assert_eq!(b.tracker.state(), TcpState::Established);
    }

    #[test]
    fn data_transfer_stays_established_in_window() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(
            C2S,
            TcpFlags::ACK | TcpFlags::PSH,
            CLIENT_ISN + 1,
            SERVER_ISN + 1,
            b"GET /",
        );
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Established,
                in_window: true
            }
        );
        let l = b.feed(S2C, TcpFlags::ACK, SERVER_ISN + 1, CLIENT_ISN + 6, &[]);
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Established,
                in_window: true
            }
        );
        let l = b.feed(
            S2C,
            TcpFlags::ACK | TcpFlags::PSH,
            SERVER_ISN + 1,
            CLIENT_ISN + 6,
            b"200 OK",
        );
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Established,
                in_window: true
            }
        );
    }

    #[test]
    fn orderly_close_walks_fin_states() {
        let mut b = Builder::new();
        b.handshake();
        // Client FIN.
        let l = b.feed(
            C2S,
            TcpFlags::FIN | TcpFlags::ACK,
            CLIENT_ISN + 1,
            SERVER_ISN + 1,
            &[],
        );
        assert_eq!(l.state, TcpState::FinWait);
        // Server acks the FIN.
        let l = b.feed(S2C, TcpFlags::ACK, SERVER_ISN + 1, CLIENT_ISN + 2, &[]);
        assert_eq!(l.state, TcpState::CloseWait);
        // Server FIN.
        let l = b.feed(
            S2C,
            TcpFlags::FIN | TcpFlags::ACK,
            SERVER_ISN + 1,
            CLIENT_ISN + 2,
            &[],
        );
        assert_eq!(l.state, TcpState::LastAck);
        // Client acks.
        let l = b.feed(C2S, TcpFlags::ACK, CLIENT_ISN + 2, SERVER_ISN + 2, &[]);
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::TimeWait,
                in_window: true
            }
        );
    }

    #[test]
    fn simultaneous_close_goes_through_closing() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(
            C2S,
            TcpFlags::FIN | TcpFlags::ACK,
            CLIENT_ISN + 1,
            SERVER_ISN + 1,
            &[],
        );
        assert_eq!(l.state, TcpState::FinWait);
        // Server FIN before acking the client's FIN.
        let l = b.feed(
            S2C,
            TcpFlags::FIN | TcpFlags::ACK,
            SERVER_ISN + 1,
            CLIENT_ISN + 1,
            &[],
        );
        assert_eq!(l.state, TcpState::Closing);
        // Ack covering the server's FIN completes the close.
        let l = b.feed(C2S, TcpFlags::ACK, CLIENT_ISN + 2, SERVER_ISN + 2, &[]);
        assert_eq!(l.state, TcpState::TimeWait);
    }

    #[test]
    fn valid_rst_closes() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(S2C, TcpFlags::RST, SERVER_ISN + 1, 0, &[]);
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Close,
                in_window: true
            }
        );
    }

    #[test]
    fn bad_checksum_rst_is_dropped_and_out_of_window() {
        // The paper's motivating example: Bad-Checksum-RST after handshake.
        let mut b = Builder::new();
        b.handshake();
        let mut p = b.packet(C2S, TcpFlags::RST, CLIENT_ISN + 1, 0, &[]);
        p.tcp_mut().checksum ^= 0x0bad;
        let l = b.tracker.process(&p, C2S);
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Established,
                in_window: false
            }
        );
        assert_eq!(b.tracker.state(), TcpState::Established);
    }

    #[test]
    fn out_of_window_rst_does_not_close() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(
            C2S,
            TcpFlags::RST,
            CLIENT_ISN.wrapping_sub(100_000_000),
            0,
            &[],
        );
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Established,
                in_window: false
            }
        );
    }

    #[test]
    fn bad_ack_data_packet_is_out_of_window() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(
            C2S,
            TcpFlags::ACK | TcpFlags::PSH,
            CLIENT_ISN + 1,
            0xdead_0000,
            b"x",
        );
        assert!(!l.in_window);
        assert_eq!(l.state, TcpState::Established);
    }

    #[test]
    fn underflow_seq_is_out_of_window() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(
            C2S,
            TcpFlags::ACK | TcpFlags::PSH,
            CLIENT_ISN.wrapping_sub(50_000_000),
            SERVER_ISN + 1,
            b"x",
        );
        assert!(!l.in_window);
    }

    #[test]
    fn retransmission_is_in_window() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(
            C2S,
            TcpFlags::ACK | TcpFlags::PSH,
            CLIENT_ISN + 1,
            SERVER_ISN + 1,
            b"hello",
        );
        assert!(l.in_window);
        // Exact retransmission of the same segment.
        let l = b.feed(
            C2S,
            TcpFlags::ACK | TcpFlags::PSH,
            CLIENT_ISN + 1,
            SERVER_ISN + 1,
            b"hello",
        );
        assert!(l.in_window);
        assert_eq!(l.state, TcpState::Established);
    }

    #[test]
    fn paws_rejects_old_timestamp() {
        let mut b = Builder::new();
        // Handshake with timestamps.
        let (ip, mut tcp) = b.parts(C2S, TcpFlags::SYN, CLIENT_ISN, 0);
        tcp.options.push(TcpOption::Timestamps {
            tsval: 1000,
            tsecr: 0,
        });
        let p = Packet::new(0.0, ip, tcp, vec![]);
        assert!(b.tracker.process(&p, C2S).in_window);
        let (ip, mut tcp) = b.parts(
            S2C,
            TcpFlags::SYN | TcpFlags::ACK,
            SERVER_ISN,
            CLIENT_ISN + 1,
        );
        tcp.options.push(TcpOption::Timestamps {
            tsval: 2000,
            tsecr: 1000,
        });
        let p = Packet::new(0.0, ip, tcp, vec![]);
        assert!(b.tracker.process(&p, S2C).in_window);
        let (ip, mut tcp) = b.parts(C2S, TcpFlags::ACK, CLIENT_ISN + 1, SERVER_ISN + 1);
        tcp.options.push(TcpOption::Timestamps {
            tsval: 1001,
            tsecr: 2000,
        });
        let p = Packet::new(0.0, ip, tcp, vec![]);
        assert!(b.tracker.process(&p, C2S).in_window);
        assert_eq!(b.tracker.state(), TcpState::Established);
        // RST with a wildly old timestamp: PAWS says it does not belong.
        let (ip, mut tcp) = b.parts(C2S, TcpFlags::RST, CLIENT_ISN + 1, 0);
        tcp.options
            .push(TcpOption::Timestamps { tsval: 3, tsecr: 0 });
        let p = Packet::new(0.0, ip, tcp, vec![]);
        let l = b.tracker.process(&p, C2S);
        assert!(!l.in_window);
        assert_eq!(b.tracker.state(), TcpState::Established);
    }

    #[test]
    fn syn_fin_combo_is_structurally_dropped() {
        let mut b = Builder::new();
        let l = b.feed(C2S, TcpFlags::SYN | TcpFlags::FIN, CLIENT_ISN, 0, &[]);
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::None,
                in_window: false
            }
        );
    }

    #[test]
    fn null_flags_dropped() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(C2S, TcpFlags::empty(), CLIENT_ISN + 1, 0, &[]);
        assert!(!l.in_window);
        assert_eq!(l.state, TcpState::Established);
    }

    #[test]
    fn mid_connection_syn_is_out_of_window() {
        let mut b = Builder::new();
        b.handshake();
        let l = b.feed(C2S, TcpFlags::SYN, CLIENT_ISN + 77777, 0, &[]);
        assert_eq!(l.state, TcpState::Established);
        // A fresh SYN mid-connection is either an in-window oddity or an
        // out-of-window injection depending on seq; this one is beyond the
        // server's advertised window.
        // (seq CLIENT_ISN+77777 vs window 65535 -> out)
        assert!(!l.in_window);
    }

    #[test]
    fn reopen_after_timewait() {
        let mut b = Builder::new();
        b.handshake();
        b.feed(
            C2S,
            TcpFlags::FIN | TcpFlags::ACK,
            CLIENT_ISN + 1,
            SERVER_ISN + 1,
            &[],
        );
        b.feed(S2C, TcpFlags::ACK, SERVER_ISN + 1, CLIENT_ISN + 2, &[]);
        b.feed(
            S2C,
            TcpFlags::FIN | TcpFlags::ACK,
            SERVER_ISN + 1,
            CLIENT_ISN + 2,
            &[],
        );
        let l = b.feed(C2S, TcpFlags::ACK, CLIENT_ISN + 2, SERVER_ISN + 2, &[]);
        assert_eq!(l.state, TcpState::TimeWait);
        // New SYN reopens the connection.
        let l = b.feed(C2S, TcpFlags::SYN, 42_000_000, 0, &[]);
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::SynSent,
                in_window: true
            }
        );
        assert_eq!(b.tracker.state(), TcpState::SynSent);
    }

    #[test]
    fn simultaneous_open() {
        let mut b = Builder::new();
        let l = b.feed(C2S, TcpFlags::SYN, CLIENT_ISN, 0, &[]);
        assert_eq!(l.state, TcpState::SynSent);
        let l = b.feed(S2C, TcpFlags::SYN, SERVER_ISN, 0, &[]);
        assert_eq!(l.state, TcpState::SynSent2);
        let l = b.feed(
            S2C,
            TcpFlags::SYN | TcpFlags::ACK,
            SERVER_ISN,
            CLIENT_ISN + 1,
            &[],
        );
        assert_eq!(l.state, TcpState::SynRecv);
    }

    #[test]
    fn data_before_any_syn_does_not_create_state() {
        let mut b = Builder::new();
        let l = b.feed(C2S, TcpFlags::ACK | TcpFlags::PSH, 500, 600, b"stray");
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::None,
                in_window: false
            }
        );
    }

    #[test]
    fn window_scaling_applies_after_negotiation() {
        let mut b = Builder::new();
        // SYN with wscale 7 on both sides, tiny raw window afterwards.
        let (ip, mut tcp) = b.parts(C2S, TcpFlags::SYN, CLIENT_ISN, 0);
        tcp.options.push(TcpOption::WindowScale(7));
        let p = Packet::new(0.0, ip, tcp, vec![]);
        b.tracker.process(&p, C2S);
        let (ip, mut tcp) = b.parts(
            S2C,
            TcpFlags::SYN | TcpFlags::ACK,
            SERVER_ISN,
            CLIENT_ISN + 1,
        );
        tcp.options.push(TcpOption::WindowScale(7));
        tcp.window = 1000; // scaled: 128,000
        let p = Packet::new(0.0, ip, tcp, vec![]);
        b.tracker.process(&p, S2C);
        b.feed(C2S, TcpFlags::ACK, CLIENT_ISN + 1, SERVER_ISN + 1, &[]);
        // Data at rcv_nxt + 100,000 fits only thanks to scaling.
        let l = b.feed(
            C2S,
            TcpFlags::ACK,
            CLIENT_ISN + 1 + 100_000,
            SERVER_ISN + 1,
            b"z",
        );
        assert!(l.in_window);
    }

    #[test]
    fn protocol_udp_flow_is_idle_established() {
        use net_packet::UdpHeader;
        let mut t = FlowTracker::for_proto(ipv4::PROTO_UDP);
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        let p = Packet::new_udp(0.0, ip, UdpHeader::new(5000, 53), b"q".to_vec());
        for _ in 0..3 {
            let l = t.process(&p, C2S);
            assert_eq!(
                l,
                StateLabel {
                    state: TcpState::Established,
                    in_window: true
                }
            );
        }
        // A lying length field makes the datagram implausible.
        let mut bad = p.clone();
        bad.udp_mut().length += 4;
        assert!(!t.process(&bad, C2S).in_window);
        // So does a corrupted checksum.
        let mut bad = p.clone();
        bad.udp_mut().checksum ^= 0x1111;
        assert!(!t.process(&bad, C2S).in_window);
        // Idle-only lifecycle: no TCP master state, never a teardown state.
        assert_eq!(t.tcp_state(), Option::None);
    }

    #[test]
    fn protocol_v6_handshake_reaches_established() {
        use net_packet::Ipv6Header;
        use std::net::Ipv6Addr;
        let c = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
        let s = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
        let seg = |src: Ipv6Addr, dst: Ipv6Addr, sp, dp, flags: TcpFlags, seq, ack| {
            let mut tcp = TcpHeader::new(sp, dp, seq, ack);
            tcp.flags = flags;
            Packet::new_v6(0.0, Ipv6Header::new(src, dst, 64), tcp, vec![])
        };
        let mut t = TcpTracker::new();
        assert!(
            t.process(&seg(c, s, 40000, 443, TcpFlags::SYN, CLIENT_ISN, 0), C2S)
                .in_window
        );
        assert!(
            t.process(
                &seg(
                    s,
                    c,
                    443,
                    40000,
                    TcpFlags::SYN | TcpFlags::ACK,
                    SERVER_ISN,
                    CLIENT_ISN + 1
                ),
                S2C
            )
            .in_window
        );
        let l = t.process(
            &seg(
                c,
                s,
                40000,
                443,
                TcpFlags::ACK,
                CLIENT_ISN + 1,
                SERVER_ISN + 1,
            ),
            C2S,
        );
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Established,
                in_window: true
            }
        );
    }

    #[test]
    fn protocol_transport_mismatch_never_belongs() {
        // A UDP datagram steered onto a TCP-tracked flow (or vice versa)
        // is never in-window and never advances the machine.
        let mut b = Builder::new();
        b.handshake();
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        let udp_p = Packet::new_udp(0.0, ip, net_packet::UdpHeader::new(40000, 443), vec![]);
        let l = b.tracker.process(&udp_p, C2S);
        assert_eq!(
            l,
            StateLabel {
                state: TcpState::Established,
                in_window: false
            }
        );
        let mut u = FlowTracker::for_proto(ipv4::PROTO_UDP);
        let tcp_p = b.packet(C2S, TcpFlags::ACK, 1, 1, &[]);
        assert!(!u.process(&tcp_p, C2S).in_window);
    }

    #[test]
    fn protocol_label_connection_dispatches_on_key_proto() {
        use net_packet::{Connection, UdpHeader};
        let key = FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40000),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 53),
        )
        .with_proto(ipv4::PROTO_UDP);
        let mut conn = Connection::new(key);
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        conn.packets.push(Packet::new_udp(
            0.0,
            ip,
            UdpHeader::new(40000, 53),
            b"query".to_vec(),
        ));
        let labels = label_connection(&conn);
        assert_eq!(
            labels,
            vec![StateLabel {
                state: TcpState::Established,
                in_window: true
            }]
        );
    }

    #[test]
    fn labels_for_whole_connection() {
        use net_packet::Connection;
        let b = Builder::new();
        let mut conn = Connection::new(b.key);
        conn.packets
            .push(b.packet(C2S, TcpFlags::SYN, CLIENT_ISN, 0, &[]));
        conn.packets.push(b.packet(
            S2C,
            TcpFlags::SYN | TcpFlags::ACK,
            SERVER_ISN,
            CLIENT_ISN + 1,
            &[],
        ));
        conn.packets
            .push(b.packet(C2S, TcpFlags::ACK, CLIENT_ISN + 1, SERVER_ISN + 1, &[]));
        let labels = label_connection(&conn);
        assert_eq!(
            labels.iter().map(|l| l.state).collect::<Vec<_>>(),
            vec![TcpState::SynSent, TcpState::SynRecv, TcpState::Established]
        );
        assert!(labels.iter().all(|l| l.in_window));
    }
}
