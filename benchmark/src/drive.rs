//! The loop under test: raw frame bytes in, `ClosedFlow` verdicts out,
//! through the public API only, one caller, one thread —
//! `Packet::from_bytes` → on `ParseError::Fragment` `Reassembler::push` →
//! `StreamScorer::push` → `drain_closed` every [`DRAIN_EVERY`] frames →
//! `finish`.
//!
//! The same loop serves throughput, latency and traced passes; what differs
//! is the [`Probe`] it is monomorphised over, so the engine sees identical
//! calls in all three.

use crate::alloc::thread_allocs;
use crate::trace::{Name, Span, Trace, NONE};
use crate::workloads::{Labels, Workload};
use clap_core::{Clap, CloseReason, ClosedFlow, StreamStats};
use net_packet::wire::ParseError;
use net_packet::{CanonicalKey, Packet, Reassembler};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::IpAddr;
use std::time::{Duration, Instant};

/// Verdicts are taken off the scorer this often, as a long-running tap
/// would; otherwise the closed-flow queue, not the flow table, would grow.
pub const DRAIN_EVERY: usize = 16_384;

/// Hooks at the layer boundaries of one frame. Events arrive in the order
/// `frame_start`, `parsed`, [`reassembled`], [`pushed`], [`drain_start`,
/// `drain_end`], `frame_end`; the bracketed ones only when that call was
/// made. The end-of-stream `finish` is a `drain_start`/`drain_end` pair
/// outside any frame. A probe overrides the events it times.
pub trait Probe {
    #[inline(always)]
    fn frame_start(&mut self, _frame: usize) {}
    #[inline(always)]
    fn parsed(&mut self) {}
    #[inline(always)]
    fn reassembled(&mut self) {}
    #[inline(always)]
    fn pushed(&mut self) {}
    #[inline(always)]
    fn drain_start(&mut self) {}
    #[inline(always)]
    fn drain_end(&mut self) {}
    #[inline(always)]
    fn frame_end(&mut self) {}
}

/// Throughput (and warm-up) passes: one clock read every [`CHUNK`] frames,
/// none per frame.
pub struct ChunkProbe {
    mark: Instant,
    frames: usize,
    /// Nanoseconds per whole chunk of frames (a trailing partial chunk and
    /// `finish` are the rest of the pass's wall time).
    pub chunk_ns: Vec<u64>,
}

/// Frames per throughput-pass clock read: a few milliseconds of work, short
/// enough that some pass measures each chunk undisturbed.
pub const CHUNK: usize = 256;

impl ChunkProbe {
    pub fn with_capacity(frames: usize) -> ChunkProbe {
        ChunkProbe {
            mark: Instant::now(),
            frames: 0,
            chunk_ns: Vec::with_capacity(frames / CHUNK + 2),
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        self.chunk_ns.push((now - self.mark).as_nanos() as u64);
        self.mark = now;
    }
}

impl Probe for ChunkProbe {
    #[inline(always)]
    fn frame_start(&mut self, frame: usize) {
        if frame == 0 {
            self.mark = Instant::now();
        }
    }
    #[inline(always)]
    fn frame_end(&mut self) {
        self.frames += 1;
        if self.frames == CHUNK {
            self.frames = 0;
            self.lap();
        }
    }
}

/// Latency passes: one `Instant` pair around each frame.
pub struct LatencyProbe {
    started: Instant,
    /// Per-frame service time in nanoseconds.
    pub samples: Vec<u32>,
}

impl LatencyProbe {
    pub fn with_capacity(frames: usize) -> LatencyProbe {
        LatencyProbe {
            started: Instant::now(),
            samples: Vec::with_capacity(frames),
        }
    }
}

impl Probe for LatencyProbe {
    #[inline(always)]
    fn frame_start(&mut self, _: usize) {
        self.started = Instant::now();
    }
    #[inline(always)]
    fn frame_end(&mut self) {
        let ns = self.started.elapsed().as_nanos();
        self.samples.push(ns.min(u128::from(u32::MAX)) as u32);
    }
}

/// Traced passes: a root `frame` span per frame and a child per call made
/// for it. Adjacent spans share the clock read between them, three reads
/// per ordinary frame.
pub struct SpanProbe {
    pub trace: Trace,
    frame: u32,
    /// Index of the open `frame` span, [`NONE`] outside a frame.
    root: u32,
    /// Clock and allocation counter at the last boundary.
    mark_ns: u64,
    mark_allocs: u64,
    /// As [`ChunkProbe::chunk_ns`], from the clock reads at frame ends.
    pub chunk_ns: Vec<u64>,
    chunk_start_ns: u64,
    frames_in_chunk: usize,
}

impl SpanProbe {
    pub fn with_capacity(frames: usize) -> SpanProbe {
        // frame + parse + push per frame; fragments and drains on top.
        SpanProbe {
            trace: Trace::with_capacity(frames * 4 + 16),
            frame: NONE,
            root: NONE,
            mark_ns: 0,
            mark_allocs: 0,
            chunk_ns: Vec::with_capacity(frames / CHUNK + 2),
            chunk_start_ns: 0,
            frames_in_chunk: 0,
        }
    }

    fn mark(&mut self) {
        self.mark_ns = self.trace.now();
        self.mark_allocs = thread_allocs();
    }

    /// Records `name` from the last boundary to now and moves the boundary.
    fn close(&mut self, name: Name) {
        let (start_ns, allocs) = (self.mark_ns, self.mark_allocs);
        self.mark();
        self.trace.record(Span {
            name,
            parent: self.root,
            frame: self.frame,
            start_ns,
            end_ns: self.mark_ns,
            allocs: (self.mark_allocs - allocs) as u32,
        });
    }
}

impl Probe for SpanProbe {
    fn frame_start(&mut self, frame: usize) {
        self.frame = frame as u32;
        // A frame starts where the previous one ended: `frame_end` left
        // its clock read in the mark, and only fetching the next slice
        // lies between the two.
        if frame == 0 {
            self.mark();
            self.chunk_start_ns = self.mark_ns;
        }
        self.root = self.trace.record(Span {
            name: Name::Frame,
            parent: NONE,
            frame: self.frame,
            start_ns: self.mark_ns,
            end_ns: self.mark_ns,
            allocs: 0,
        });
    }
    fn parsed(&mut self) {
        self.close(Name::WireParse);
    }
    fn reassembled(&mut self) {
        self.close(Name::FragPush);
    }
    fn pushed(&mut self) {
        self.close(Name::StreamPush);
    }
    fn drain_start(&mut self) {
        self.mark();
    }
    fn drain_end(&mut self) {
        self.close(Name::StreamDrain);
    }
    fn frame_end(&mut self) {
        self.mark();
        let end_ns = self.mark_ns;
        self.trace.get_mut(self.root).end_ns = end_ns;
        self.root = NONE;
        self.frame = NONE;
        self.frames_in_chunk += 1;
        if self.frames_in_chunk == CHUNK {
            self.frames_in_chunk = 0;
            self.chunk_ns.push(end_ns - self.chunk_start_ns);
            self.chunk_start_ns = end_ns;
        }
    }
}

/// What one pass did, counted where the work happened.
pub struct PassOutcome {
    /// Frame loop plus `finish`; parse, reassembly, scoring and drains are
    /// all inside, the memory probe between them is not.
    pub wall: Duration,
    pub offered: u64,
    /// Frames that led to a `StreamScorer::push` (whole datagrams and the
    /// fragment that completed one).
    pub pushed: u64,
    pub rejected: u64,
    pub fragments_in: u64,
    pub datagrams_out: u64,
    /// Datagrams the reassembler expired, evicted or still held at the end.
    pub frag_dropped: u64,
    pub verdicts: Vec<ClosedFlow>,
    pub stats: StreamStats,
    /// `StreamScorer::mem_bytes()` after the last frame, before `finish`.
    pub table_bytes: usize,
    /// Time spent in `finish` (part of `wall`).
    pub finish: Duration,
}

pub fn run_pass<P: Probe>(clap: &Clap, w: &Workload, probe: &mut P) -> PassOutcome {
    let mut scorer = clap.stream_scorer_with(w.stream.clone());
    let mut reasm = Reassembler::new();
    let mut verdicts: Vec<ClosedFlow> = Vec::new();
    let (mut pushed, mut rejected, mut fragments_in, mut datagrams_out) = (0u64, 0u64, 0u64, 0u64);
    let frames = &w.frames;

    let started = Instant::now();
    for i in 0..frames.len() {
        let (ts, bytes) = frames.get(i);
        probe.frame_start(i);
        let parsed = Packet::from_bytes(ts, bytes);
        probe.parsed();
        let packet = match parsed {
            Ok(p) => Some(p),
            Err(ParseError::Fragment { .. }) => {
                fragments_in += 1;
                let done = reasm.push(ts, bytes);
                probe.reassembled();
                datagrams_out += u64::from(done.is_some());
                done
            }
            Err(_) => {
                rejected += 1;
                None
            }
        };
        if let Some(p) = &packet {
            black_box(scorer.push(p));
            probe.pushed();
            pushed += 1;
        }
        if (i + 1) % DRAIN_EVERY == 0 {
            probe.drain_start();
            verdicts.append(&mut scorer.drain_closed());
            probe.drain_end();
        }
        // Freeing the parsed packet is part of the frame's cost.
        drop(packet);
        probe.frame_end();
    }
    let frames_wall = started.elapsed();

    let table_bytes = scorer.mem_bytes();
    let finishing = Instant::now();
    probe.drain_start();
    verdicts.append(&mut scorer.finish());
    probe.drain_end();
    let finish = finishing.elapsed();

    PassOutcome {
        wall: frames_wall + finish,
        offered: frames.len() as u64,
        pushed,
        rejected,
        fragments_in,
        datagrams_out,
        frag_dropped: reasm.expired() + reasm.evicted() + reasm.pending() as u64,
        verdicts,
        stats: scorer.stats(),
        table_bytes,
        finish,
    }
}

impl PassOutcome {
    /// The pass's wall time as one row of work units: the probe's whole
    /// chunks, then the trailing partial chunk, then `finish`.
    pub fn chunk_row(&self, mut whole_chunks: Vec<u64>) -> Vec<u64> {
        let whole: u64 = whole_chunks.iter().sum();
        let frames_wall = (self.wall - self.finish).as_nanos() as u64;
        whole_chunks.push(frames_wall.saturating_sub(whole));
        whole_chunks.push(self.finish.as_nanos() as u64);
        whole_chunks
    }

    /// Fragment frames the reassembler took without completing a datagram.
    pub fn absorbed(&self) -> u64 {
        self.fragments_in - self.datagrams_out
    }

    pub fn closed_packets(&self) -> u64 {
        self.verdicts.iter().map(|v| v.packets as u64).sum()
    }

    /// Frames that did not end up in a verdict: rejected by the parser,
    /// lost with a dropped datagram (at least one frame each), or pushed
    /// and then not accounted for by any closed flow.
    pub fn failed(&self) -> u64 {
        self.rejected + self.frag_dropped + self.pushed.abs_diff(self.closed_packets())
    }

    /// Frame conservation, as error messages (empty = holds).
    pub fn conservation_errors(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.offered != self.pushed + self.absorbed() + self.rejected {
            errs.push(format!(
                "offered {} != pushed {} + fragments absorbed {} + rejected {}",
                self.offered,
                self.pushed,
                self.absorbed(),
                self.rejected
            ));
        }
        if self.closed_packets() != self.pushed {
            errs.push(format!(
                "closed flows account for {} packets, {} were pushed",
                self.closed_packets(),
                self.pushed
            ));
        }
        errs
    }

    /// Flows that `finish` closed with fewer packets than the model's
    /// window depth: their one padded autoencoder pass ran inside `finish`,
    /// not inside a `push`.
    pub fn padded_in_finish(&self, stack: usize) -> u64 {
        self.verdicts
            .iter()
            .filter(|v| v.reason == CloseReason::Drained && v.packets < stack)
            .count() as u64
    }

    pub fn bytes_per_flow(&self) -> f64 {
        self.table_bytes as f64 / self.stats.flows_peak.max(1) as f64
    }
}

/// FNV-1a over (key, packets, reason, score bits) of every verdict, in the
/// order the engine emitted them. Two runs with the same digest closed the
/// same flows, for the same reasons, with bit-identical scores.
pub fn verdict_digest(verdicts: &[ClosedFlow]) -> u64 {
    let mut h = Fnv::new();
    for v in verdicts {
        for ep in [v.key.client, v.key.server] {
            match ep.addr {
                IpAddr::V4(a) => h.write(&a.octets()),
                IpAddr::V6(a) => h.write(&a.octets()),
            }
            h.write(&ep.port.to_be_bytes());
        }
        h.write(&[v.key.proto, reason_code(v.reason)]);
        h.write(&(v.packets as u64).to_be_bytes());
        h.write(&v.scored.score.to_bits().to_be_bytes());
    }
    h.finish()
}

fn reason_code(r: CloseReason) -> u8 {
    match r {
        CloseReason::TcpClose => 0,
        CloseReason::IdleTimeout => 1,
        CloseReason::CapacityEvicted => 2,
        CloseReason::LengthCapped => 3,
        CloseReason::Drained => 4,
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Detection quality of the *streamed* verdicts.
pub struct Detection {
    pub auc_roc: f64,
    /// Flow identities that are not in exactly one label set — shared by a
    /// benign and an attacked connection, or opened by an attack under a
    /// foreign tuple. Their verdicts carry no ground truth and are left out.
    pub unlabelled: usize,
}

/// A connection's score is the maximum over its incarnations (a 4-tuple
/// that reappears after teardown is a new flow to the streaming engine).
pub fn detection(verdicts: &[ClosedFlow], labels: &Labels) -> Detection {
    let mut by_key: HashMap<CanonicalKey, f32> = HashMap::new();
    for v in verdicts {
        let score = by_key
            .entry(CanonicalKey::of_key(&v.key))
            .or_insert(f32::NEG_INFINITY);
        *score = score.max(v.scored.score);
    }
    let (mut benign, mut attacked, mut unlabelled) = (Vec::new(), Vec::new(), 0);
    for (key, score) in by_key {
        match (labels.benign.contains(&key), labels.attacked.contains(&key)) {
            (true, false) => benign.push(score),
            (false, true) => attacked.push(score),
            _ => unlabelled += 1,
        }
    }
    Detection {
        auc_roc: f64::from(clap_core::auc_roc(&benign, &attacked)),
        unlabelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_core::ScoredConnection;
    use net_packet::{Endpoint, FlowKey};
    use std::net::Ipv4Addr;

    fn verdict(host: u8, packets: usize, reason: CloseReason, score: f32) -> ClosedFlow {
        ClosedFlow {
            key: FlowKey::new(
                Endpoint::new(Ipv4Addr::new(10, 0, 0, host), 40_000),
                Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), 443),
            ),
            packets,
            reason,
            arrival: 0,
            scored: ScoredConnection {
                window_errors: Vec::new(),
                peak_window: 0,
                peak_packet: 0,
                score,
            },
        }
    }

    #[test]
    fn digest_is_pinned_and_sensitive_to_every_field() {
        let base = [
            verdict(1, 10, CloseReason::TcpClose, 0.25),
            verdict(2, 3, CloseReason::Drained, 0.5),
        ];
        let d = verdict_digest(&base);
        assert_eq!(d, verdict_digest(&base.clone()));
        assert_eq!(verdict_digest(&[]), 0xcbf2_9ce4_8422_2325);
        // Pinned: a change to the digest function shows up here, not as a
        // silent break in cross-commit comparability.
        assert_eq!(format!("{d:016x}"), "953191b06f540b8a");

        let variants = [
            [verdict(9, 10, CloseReason::TcpClose, 0.25), base[1].clone()],
            [verdict(1, 11, CloseReason::TcpClose, 0.25), base[1].clone()],
            [
                verdict(1, 10, CloseReason::IdleTimeout, 0.25),
                base[1].clone(),
            ],
            [
                verdict(1, 10, CloseReason::TcpClose, 0.250_000_03),
                base[1].clone(),
            ],
            [base[1].clone(), base[0].clone()],
        ];
        for v in &variants {
            assert_ne!(verdict_digest(v), d);
        }
    }

    #[test]
    fn detection_takes_the_max_over_incarnations_and_drops_shared_keys() {
        let key = |host| CanonicalKey::of_key(&verdict(host, 1, CloseReason::Drained, 0.0).key);
        let labels = Labels {
            benign: [key(1), key(2), key(5)].into_iter().collect(),
            attacked: [key(3), key(4), key(5)].into_iter().collect(),
        };
        let verdicts = [
            verdict(1, 5, CloseReason::TcpClose, 0.1),
            verdict(2, 5, CloseReason::TcpClose, 0.2),
            // Attacked flow 3 restarts: low first incarnation, high second.
            verdict(3, 5, CloseReason::TcpClose, 0.05),
            verdict(3, 2, CloseReason::Drained, 0.9),
            verdict(4, 5, CloseReason::TcpClose, 0.8),
            // Shared by both label sets, and one nobody labelled.
            verdict(5, 5, CloseReason::TcpClose, 0.0),
            verdict(6, 5, CloseReason::TcpClose, 0.0),
        ];
        let d = detection(&verdicts, &labels);
        assert_eq!(d.unlabelled, 2);
        // Both attacked flows (0.9 by its second incarnation, 0.8) outscore
        // both benign ones; with flow 3's first incarnation alone they
        // would not.
        assert_eq!(d.auc_roc, 1.0);
    }
}
