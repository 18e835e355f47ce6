//! IPv4 fragment reassembly.
//!
//! [`crate::wire::parse_packet`] refuses to decode a fragment as a
//! transport packet (see [`crate::wire::ParseError::Fragment`]); the raw
//! bytes are routed here instead. The reassembler keeps a bounded per-key
//! cache — keyed by (src, dst, identification, protocol) per RFC 791 —
//! that drops a datagram `timeout` seconds after its last fragment (when
//! full, the one whose last fragment is oldest), and applies a
//! **first-received-wins** overlap policy: bytes already accepted for a
//! range are never replaced, and a later fragment that overlaps them is
//! recorded as `overlapped` (plus `conflicting` when the overlapping
//! bytes actually differ). Overlap is a classic DPI-evasion vector —
//! different OSes resolve it differently — so the verdict-relevant outcome
//! is surfaced on the reassembled packet via [`ReassemblyInfo`] and folded
//! into the feature vector downstream.
//!
//! When a datagram completes, the initial fragment's header bytes are
//! patched (MF cleared, offset zeroed, `total_length` set to the true
//! size, checksum recomputed) and the whole datagram goes back through
//! [`crate::wire::parse_packet`], so a reassembled packet honors exactly
//! the same lenient-parse contract as an unfragmented one.

use crate::checksum::{finalize, ones_complement_sum};
use crate::ipv4::FLAG_MF;
use crate::{wire, Packet};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// How a reassembled packet came to be, attached as
/// [`crate::Packet::reassembly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReassemblyInfo {
    /// Number of fragments that contributed to (or collided with) the
    /// datagram.
    pub fragments: u16,
    /// True when any fragment overlapped bytes already received.
    pub overlapped: bool,
    /// True when overlapping bytes disagreed — the signature of an
    /// overlap-evasion attack rather than a benign retransmission.
    pub conflicting: bool,
}

/// Reassembly key per RFC 791: source, destination, identification and
/// protocol, taken from the raw v4 header bytes.
type Key = ([u8; 4], [u8; 4], u16, u8);

#[derive(Debug, Default)]
struct Entry {
    /// Header bytes (fixed part + options) of the offset-0 fragment;
    /// empty until the initial fragment arrives.
    header: Vec<u8>,
    /// Accepted payload ranges, sorted by offset, non-overlapping
    /// (first-received bytes win).
    ranges: Vec<(usize, Vec<u8>)>,
    /// Datagram payload size, established by the MF=0 fragment.
    total_len: Option<usize>,
    fragments: u16,
    overlapped: bool,
    conflicting: bool,
    /// [`Reassembler::pushes`] as of the datagram's latest fragment.
    touched: u64,
}

impl Entry {
    /// Whether fragment number `push` is still the datagram's latest.
    fn touched_at(entries: &HashMap<Key, Entry>, key: &Key, push: u64) -> bool {
        entries.get(key).is_some_and(|e| e.touched == push)
    }

    fn complete(&self) -> bool {
        let Some(total) = self.total_len else {
            return false;
        };
        if self.header.is_empty() {
            return false;
        }
        let mut covered = 0usize;
        for (off, data) in &self.ranges {
            if *off > covered {
                return false; // hole
            }
            covered = covered.max(off + data.len());
        }
        covered >= total
    }
}

/// Bounded IPv4 fragment reassembler.
#[derive(Debug)]
pub struct Reassembler {
    entries: HashMap<Key, Entry>,
    capacity: usize,
    timeout: f64,
    /// The latest timestamp pushed; it never runs backwards.
    clock: f64,
    /// Fragments accepted so far.
    pushes: u64,
    /// `(deadline, push, key)` for every fragment that left its datagram
    /// incomplete, in arrival order — which is deadline order, the timeout
    /// being one constant on a monotone clock. A pair is *live* while
    /// `push` is its datagram's latest fragment; a datagram has exactly
    /// one live pair, the rest wait to be popped or compacted away.
    deadlines: VecDeque<(f64, u64, Key)>,
    expired: u64,
    evicted: u64,
}

impl Default for Reassembler {
    fn default() -> Self {
        Self::new()
    }
}

impl Reassembler {
    /// Default limits: 256 concurrent datagrams, 30-second fragment
    /// timeout (the classic BSD reassembly timer).
    pub fn new() -> Self {
        Self::with_limits(256, 30.0)
    }

    /// A reassembler bounded to `capacity` concurrent datagrams whose
    /// fragments expire `timeout` seconds after the last arrival.
    pub fn with_limits(capacity: usize, timeout: f64) -> Self {
        let capacity = capacity.max(1);
        let timeout = if timeout > 0.0 { timeout } else { 30.0 };
        Reassembler {
            entries: HashMap::new(),
            capacity,
            timeout,
            clock: f64::NEG_INFINITY,
            pushes: 0,
            deadlines: VecDeque::new(),
            expired: 0,
            evicted: 0,
        }
    }

    /// Datagrams currently awaiting more fragments.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Incomplete datagrams dropped by the fragment timeout so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Incomplete datagrams evicted by the capacity bound so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Pops deadline pairs off the front while `more` says so of the
    /// front deadline, drops the datagram of each live pair popped —
    /// stalest first — and returns how many datagrams that was.
    fn drop_stalest_while(&mut self, more: impl Fn(&Reassembler, f64) -> bool) -> u64 {
        let mut dropped = 0;
        while let Some(&(deadline, push, key)) = self.deadlines.front() {
            if !more(self, deadline) {
                break;
            }
            self.deadlines.pop_front();
            if Entry::touched_at(&self.entries, &key, push) {
                self.entries.remove(&key);
                dropped += 1;
            }
        }
        dropped
    }

    /// Feeds one raw IPv4 fragment. Returns the fully reassembled packet
    /// when this fragment completes its datagram (and the reconstructed
    /// datagram parses), `None` while the datagram is still incomplete or
    /// when the bytes are not a usable v4 fragment. The returned packet
    /// carries the completing fragment's timestamp and a
    /// [`ReassemblyInfo`].
    pub fn push(&mut self, timestamp: f64, raw: &[u8]) -> Option<Packet> {
        self.clock = self.clock.max(timestamp);
        self.expired += self.drop_stalest_while(|r, deadline| deadline <= r.clock);

        if raw.len() < 20 || raw[0] >> 4 == 6 {
            return None;
        }
        let ip_hdr_len = ((raw[0] & 0x0f) as usize * 4).clamp(20, raw.len());
        let frag = u16::from_be_bytes([raw[6], raw[7]]);
        let more = (frag >> 13) as u8 & FLAG_MF != 0;
        let offset = ((frag & 0x1fff) as usize) * 8;
        let total_length = u16::from_be_bytes([raw[2], raw[3]]) as usize;
        let end = if total_length > ip_hdr_len && total_length <= raw.len() {
            total_length
        } else {
            raw.len()
        };
        let data = &raw[ip_hdr_len..end];
        if data.is_empty() && more {
            return None; // empty non-final fragment carries no information
        }

        let key: Key = (
            raw[12..16].try_into().expect("4 bytes"),
            raw[16..20].try_into().expect("4 bytes"),
            u16::from_be_bytes([raw[4], raw[5]]),
            raw[9],
        );

        if !self.entries.contains_key(&key) {
            // Every datagram has a live pair, so this ends below capacity.
            self.evicted += self.drop_stalest_while(|r, _| r.entries.len() >= r.capacity);
        }
        let entry = self.entries.entry(key).or_default();
        entry.fragments = entry.fragments.saturating_add(1);
        self.pushes += 1;
        entry.touched = self.pushes;

        if offset == 0 && entry.header.is_empty() {
            entry.header = raw[..ip_hdr_len].to_vec();
        }
        if !more {
            // First-received wins for the datagram size, too.
            entry.total_len.get_or_insert(offset + data.len());
        }

        // First-received-wins insert: keep only the sub-ranges of the new
        // fragment not already covered, recording overlap and byte
        // conflicts against what is.
        let mut cursor = offset;
        let new_end = offset + data.len();
        let mut fresh: Vec<(usize, Vec<u8>)> = Vec::new();
        for (roff, rdata) in &entry.ranges {
            let rend = roff + rdata.len();
            if rend <= cursor || *roff >= new_end {
                continue;
            }
            if *roff > cursor {
                fresh.push((cursor, data[cursor - offset..*roff - offset].to_vec()));
            }
            let lo = cursor.max(*roff);
            let hi = new_end.min(rend);
            if lo < hi {
                entry.overlapped = true;
                if data[lo - offset..hi - offset] != rdata[lo - roff..hi - roff] {
                    entry.conflicting = true;
                }
            }
            cursor = cursor.max(rend);
        }
        if cursor < new_end {
            fresh.push((cursor, data[cursor - offset..].to_vec()));
        }
        entry.ranges.extend(fresh);
        entry.ranges.sort_by_key(|(off, _)| *off);

        if !entry.complete() {
            self.deadlines
                .push_back((self.clock + self.timeout, self.pushes, key));
            // A flood of fragments for few datagrams (duplicates are
            // accepted) leaves mostly dead pairs: keep the ≤ `capacity`
            // live ones, so the queue stays O(capacity) at amortised O(1).
            if self.deadlines.len() > 4 * self.capacity + 64 {
                let entries = &self.entries;
                self.deadlines
                    .retain(|(_, push, key)| Entry::touched_at(entries, key, *push));
                debug_assert!(self.deadlines.len() <= self.capacity);
            }
            return None;
        }

        let entry = self.entries.remove(&key).expect("checked above");
        let total = entry.total_len.expect("complete implies total_len");
        let mut payload = vec![0u8; total];
        for (off, data) in &entry.ranges {
            if *off >= total {
                continue;
            }
            let take = data.len().min(total - off);
            payload[*off..off + take].copy_from_slice(&data[..take]);
        }

        // Patch the initial fragment's header into the whole-datagram
        // header: clear MF, zero the offset, set the true total length and
        // recompute the checksum.
        let mut header = entry.header;
        let flags = (header[6] >> 5) & !FLAG_MF;
        header[6] = flags << 5;
        header[7] = 0;
        let total_length = (header.len() + total).min(u16::MAX as usize) as u16;
        header[2..4].copy_from_slice(&total_length.to_be_bytes());
        header[10..12].copy_from_slice(&[0, 0]);
        let checksum = finalize(ones_complement_sum(&header, 0));
        header[10..12].copy_from_slice(&checksum.to_be_bytes());

        let mut datagram = header;
        datagram.extend_from_slice(&payload);
        let mut packet = wire::parse_packet(timestamp, &datagram).ok()?;
        packet.reassembly = Some(ReassemblyInfo {
            fragments: entry.fragments,
            overlapped: entry.overlapped,
            conflicting: entry.conflicting,
        });
        Some(packet)
    }
}

/// Splits a serialized IPv4 datagram into raw fragments of at most
/// `frag_payload` payload bytes each (rounded down to the required 8-byte
/// multiple, minimum 8). Each fragment repeats the IP header with the
/// fragment offset set, MF on every fragment but the last, `total_length`
/// fixed up and the checksum recomputed. Non-v4 or too-short input is
/// returned as a single "fragment" unchanged.
pub fn fragment_datagram(datagram: &[u8], frag_payload: usize) -> Vec<Vec<u8>> {
    if datagram.len() < 20 || datagram[0] >> 4 == 6 {
        return vec![datagram.to_vec()];
    }
    let ip_hdr_len = ((datagram[0] & 0x0f) as usize * 4).clamp(20, datagram.len());
    let header = &datagram[..ip_hdr_len];
    let payload = &datagram[ip_hdr_len..];
    let chunk = (frag_payload / 8 * 8).max(8);
    if payload.len() <= chunk {
        return vec![datagram.to_vec()];
    }

    let mut out = Vec::with_capacity(payload.len().div_ceil(chunk));
    let mut offset = 0usize;
    while offset < payload.len() {
        let end = (offset + chunk).min(payload.len());
        let more = end < payload.len();
        let mut h = header.to_vec();
        // DF would contradict what we are doing; carry MF + offset instead.
        let flags = if more { FLAG_MF } else { 0 };
        let frag = (u16::from(flags) << 13) | ((offset / 8) as u16 & 0x1fff);
        h[6..8].copy_from_slice(&frag.to_be_bytes());
        let total_length = (ip_hdr_len + end - offset).min(u16::MAX as usize) as u16;
        h[2..4].copy_from_slice(&total_length.to_be_bytes());
        h[10..12].copy_from_slice(&[0, 0]);
        let checksum = finalize(ones_complement_sum(&h, 0));
        h[10..12].copy_from_slice(&checksum.to_be_bytes());
        h.extend_from_slice(&payload[offset..end]);
        out.push(h);
        offset = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipv4Header, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn datagram(payload_len: usize) -> (Packet, Vec<u8>) {
        let mut ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        ip.identification = 0x7777;
        let mut tcp = TcpHeader::new(4321, 443, 1000, 2000);
        tcp.flags = TcpFlags::ACK | TcpFlags::PSH;
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let p = Packet::new(0.0, ip, tcp, payload);
        let bytes = wire::serialize_packet(&p);
        (p, bytes)
    }

    #[test]
    fn protocol_fragmented_datagram_reassembles_in_order() {
        let (orig, bytes) = datagram(100);
        let frags = fragment_datagram(&bytes, 32);
        assert_eq!(frags.len(), 4); // 20 TCP hdr + 100 payload over 32-byte chunks
        let mut r = Reassembler::new();
        let mut done = None;
        for (i, f) in frags.iter().enumerate() {
            assert!(
                wire::parse_packet(0.0, f).is_err(),
                "fragments must not parse"
            );
            done = r.push(i as f64 * 0.001, f);
            if i + 1 < frags.len() {
                assert!(done.is_none());
            }
        }
        let p = done.expect("last fragment completes the datagram");
        assert_eq!(p.payload, orig.payload);
        assert_eq!(p.tcp().seq, orig.tcp().seq);
        assert_eq!(p.tcp().src_port, orig.tcp().src_port);
        assert!(p.ip_checksum_valid());
        assert!(p.transport_checksum_valid());
        let info = p.reassembly.expect("reassembled packets carry info");
        assert_eq!(info.fragments, 4);
        assert!(!info.overlapped);
        assert!(!info.conflicting);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn protocol_reassembles_out_of_order() {
        let (orig, bytes) = datagram(64);
        let mut frags = fragment_datagram(&bytes, 24);
        frags.reverse();
        let mut r = Reassembler::new();
        let mut done = None;
        for f in &frags {
            done = r.push(0.0, f);
        }
        let p = done.expect("completes once the hole at offset 0 is filled");
        assert_eq!(p.payload, orig.payload);
        assert!(p.transport_checksum_valid());
    }

    #[test]
    fn protocol_overlap_first_received_wins() {
        let (orig, bytes) = datagram(48);
        let frags = fragment_datagram(&bytes, 32);
        assert_eq!(frags.len(), 3);
        // A duplicate of fragment #1 with altered content, injected between
        // the real ones: its bytes must lose to the already-received copy.
        let mut evil = frags[1].clone();
        let start = evil.len() - 8;
        for b in &mut evil[start..] {
            *b ^= 0xff;
        }
        let mut r = Reassembler::new();
        assert!(r.push(0.0, &frags[0]).is_none());
        assert!(r.push(0.1, &frags[1]).is_none());
        assert!(r.push(0.2, &evil).is_none());
        let p = r.push(0.3, &frags[2]).expect("complete");
        assert_eq!(p.payload, orig.payload, "first-received bytes must win");
        let info = p.reassembly.unwrap();
        assert_eq!(info.fragments, 4);
        assert!(info.overlapped);
        assert!(info.conflicting);
    }

    #[test]
    fn protocol_benign_duplicate_is_overlap_without_conflict() {
        let (_, bytes) = datagram(48);
        let frags = fragment_datagram(&bytes, 40);
        assert_eq!(frags.len(), 2); // 20 TCP hdr + 48 payload over 40-byte chunks
        let mut r = Reassembler::new();
        assert!(r.push(0.0, &frags[0]).is_none());
        assert!(r.push(0.1, &frags[0]).is_none()); // straight retransmit
        let p = r.push(0.2, &frags[1]).expect("complete");
        let info = p.reassembly.unwrap();
        assert!(info.overlapped);
        assert!(!info.conflicting);
    }

    #[test]
    fn protocol_incomplete_datagrams_expire() {
        let (_, bytes) = datagram(64);
        let frags = fragment_datagram(&bytes, 24);
        let mut r = Reassembler::with_limits(16, 5.0);
        assert!(r.push(0.0, &frags[0]).is_none());
        assert_eq!(r.pending(), 1);
        // An unrelated fragment far in the future moves the clock.
        let (_, other) = datagram(64);
        let mut other_frags = fragment_datagram(&other, 24);
        other_frags[0][4..6].copy_from_slice(&0x9999u16.to_be_bytes());
        assert!(r.push(100.0, &other_frags[0]).is_none());
        assert_eq!(r.pending(), 1, "stale datagram expired, new one pending");
        assert_eq!(r.expired(), 1);
    }

    #[test]
    fn protocol_capacity_bound_evicts_oldest() {
        let (_, bytes) = datagram(64);
        let frags = fragment_datagram(&bytes, 24);
        let mut r = Reassembler::with_limits(4, 30.0);
        for id in 0..6u16 {
            let mut f = frags[0].clone();
            f[4..6].copy_from_slice(&id.to_be_bytes());
            assert!(r.push(id as f64 * 0.01, &f).is_none());
        }
        assert_eq!(r.pending(), 4);
        assert_eq!(r.evicted(), 2);
    }

    /// A flood of duplicates of one fragment (each is accepted, as an
    /// overlap) costs the deadline queue O(capacity), not a pair apiece.
    #[test]
    fn duplicate_flood_keeps_the_deadline_queue_bounded() {
        let (orig, bytes) = datagram(48);
        let frags = fragment_datagram(&bytes, 40);
        let mut r = Reassembler::with_limits(4, 30.0);
        for _ in 0..100_000 {
            assert!(r.push(7.0, &frags[0]).is_none());
            assert!(r.deadlines.len() <= 4 * 4 + 64);
        }
        assert_eq!((r.pending(), r.expired(), r.evicted()), (1, 0, 0));
        let p = r.push(7.0, &frags[1]).expect("complete");
        assert_eq!(p.payload, orig.payload);
        let info = p.reassembly.unwrap();
        assert!(info.overlapped && !info.conflicting);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn fragment_datagram_leaves_small_and_non_v4_alone() {
        let (_, bytes) = datagram(8);
        assert_eq!(fragment_datagram(&bytes, 64).len(), 1);
        let v6ish = vec![0x60u8; 60];
        assert_eq!(fragment_datagram(&v6ish, 8), vec![v6ish.clone()]);
    }
}
