//! The four workloads, generated from the seed and serialised to raw frame
//! bytes. The engine under test sees nothing but those bytes.
//!
//! Each workload exists to load some layers and spare others; the `why`
//! strings here are the short form, `benchmark/README.md` the long one.

use clap_core::{EvictionMode, QuantMode, ResidentMode, StreamConfig};
use dpi_attacks::AttackSource;
use net_packet::{CanonicalKey, Connection, Ipv4Header, Packet, TcpFlags, TcpHeader};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use traffic_gen::ChurnConfig;

/// Pre-serialised frames: one contiguous byte arena plus offsets, so a
/// pass walks memory linearly and offering a frame costs no allocation.
#[derive(Default)]
pub struct Frames {
    arena: Vec<u8>,
    /// `ends[i]` is one past frame `i`'s last byte.
    ends: Vec<usize>,
    timestamps: Vec<f64>,
}

impl Frames {
    pub fn push(&mut self, timestamp: f64, bytes: &[u8]) {
        self.arena.extend_from_slice(bytes);
        self.ends.push(self.arena.len());
        self.timestamps.push(timestamp);
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> (f64, &[u8]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.timestamps[i], &self.arena[start..self.ends[i]])
    }

    pub fn iter(&self) -> impl Iterator<Item = (f64, &[u8])> {
        (0..self.len()).map(|i| self.get(i))
    }

    fn from_records(records: Vec<(f64, Vec<u8>)>) -> Frames {
        let mut f = Frames::default();
        f.arena.reserve(records.iter().map(|(_, b)| b.len()).sum());
        for (ts, bytes) in &records {
            f.push(*ts, bytes);
        }
        f
    }
}

/// Ground truth for the workloads that carry attacks, by flow identity.
pub struct Labels {
    pub benign: HashSet<CanonicalKey>,
    pub attacked: HashSet<CanonicalKey>,
}

impl Labels {
    fn of(benign: &[Connection], attacked: &[Connection]) -> Labels {
        let keys = |c: &[Connection]| c.iter().map(|c| CanonicalKey::of_key(&c.key)).collect();
        Labels {
            benign: keys(benign),
            attacked: keys(attacked),
        }
    }
}

pub struct Workload {
    pub frames: Frames,
    pub stream: StreamConfig,
    pub labels: Option<Labels>,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    build: fn(u64, usize) -> Workload,
}

impl Spec {
    /// Generates the workload. `shrink` divides every size knob (1 for a
    /// measured run, 20 for `--smoke`).
    pub fn build(&self, seed: u64, shrink: usize) -> Workload {
        (self.build)(seed, shrink.max(1))
    }
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tcp4_attacks",
        why: "benign IPv4/TCP plus the paper's 73 strategies at f32: ~30 packets/flow, \
              so nearly every frame completes an autoencoder window and `neural` dominates",
        build: tcp4_attacks,
    },
    Spec {
        name: "mixed_frag",
        why: "v4/v6 x TCP/UDP with ~30% IPv4 fragments at int8 weights: loads the v6 walk, \
              UDP tracker and Reassembler, and halves the model's share",
        build: mixed_frag,
    },
    Spec {
        name: "churn_16k",
        why: "elephant/mice churn at a 16k-flow plateau, int8 weights and int8 resident state: \
              a table beyond L2, teardown and slot reuse, quantise/dequantise per packet",
        build: churn_16k,
    },
    Spec {
        name: "syn_scan",
        why: "distinct 4-tuples, a SYN answered by RST|ACK or by nothing: no flow reaches a \
              sliding window, so flow open/close and finalisation set the cost",
        build: syn_scan,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Every `StreamConfig` field spelled out: `StreamConfig::default()` reads
/// `NEURAL_QUANT` and `CLAP_MICROBATCH`, and a benchmark must not.
fn stream_config(quant: QuantMode, resident: ResidentMode) -> StreamConfig {
    StreamConfig {
        idle_timeout: 300.0,
        max_flows: 1 << 20,
        teardown_on_close: true,
        time_wait: 0.0,
        max_packets_per_flow: 1 << 20,
        sweep_interval: 4096,
        orient_buffer: 3,
        quant,
        eviction: EvictionMode::Wheel,
        resident,
        microbatch: 0,
        microbatch_wait: 64,
    }
}

/// Distinct dataset seeds from the one run seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    splitmix(&mut (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Held-out benign connections plus `per_strategy` base connections put
/// through each strategy of `sources`, as labelled connection lists.
fn attack_corpus(
    seed: u64,
    benign: Vec<Connection>,
    base: fn(u64, usize) -> Vec<Connection>,
    per_strategy: usize,
    in_corpus: fn(AttackSource) -> bool,
) -> (Vec<Connection>, Labels) {
    let mut attacked = Vec::new();
    for (i, strat) in dpi_attacks::registry().iter().enumerate() {
        if in_corpus(strat.source) {
            let held_out = base(sub_seed(seed, 0xadb0 + i as u64), per_strategy);
            let set = dpi_attacks::build_adversarial_set(strat, &held_out, seed);
            // A few strategies corrupt a field the parser cannot get past
            // (IP protocol, a length that cuts the TCP header). The frame
            // would be rejected, and a workload must hold no operation
            // that fails, so such connections stay out of the capture.
            attacked.extend(
                set.into_iter()
                    .map(|r| r.connection)
                    .filter(|c| c.packets.iter().all(survives_the_wire)),
            );
        }
    }
    let labels = Labels::of(&benign, &attacked);
    let mut all = benign;
    all.append(&mut attacked);
    (all, labels)
}

/// Whether the packet, serialised, parses back as a whole datagram.
fn survives_the_wire(p: &Packet) -> bool {
    Packet::from_bytes(p.timestamp, &p.to_bytes()).is_ok()
}

fn tcp4_attacks(seed: u64, shrink: usize) -> Workload {
    let benign = traffic_gen::dataset(sub_seed(seed, 0x7e57), 900 / shrink);
    let (conns, labels) = attack_corpus(
        seed,
        benign,
        traffic_gen::dataset,
        (36 / shrink).max(2),
        AttackSource::in_paper,
    );
    Workload {
        frames: Frames::from_records(traffic_gen::capture_records(&conns, None)),
        stream: stream_config(QuantMode::Off, ResidentMode::F32),
        labels: Some(labels),
    }
}

fn mixed_frag(seed: u64, shrink: usize) -> Workload {
    let benign = traffic_gen::mixed_dataset(sub_seed(seed, 0x6e1), 6000 / shrink);
    let (conns, labels) = attack_corpus(
        seed,
        benign,
        traffic_gen::mixed_dataset,
        600 / shrink,
        |s| s == AttackSource::Extended,
    );
    Workload {
        // IPv4 datagrams over 600 wire bytes go out as fragments.
        frames: Frames::from_records(traffic_gen::capture_records(&conns, Some(600))),
        stream: stream_config(QuantMode::Int8, ResidentMode::F32),
        labels: Some(labels),
    }
}

fn churn_16k(seed: u64, shrink: usize) -> Workload {
    let flows = 16_000 / shrink;
    let cfg = ChurnConfig {
        // Mean per-flow gap = flows / pps, and the whole capture 0.08 s of
        // packet time: nothing idles out, flows leave by teardown only.
        pps: 2e6,
        ..ChurnConfig::new(sub_seed(seed, 0x5ca1e), flows, flows * 10)
    };
    let mut frames = Frames::default();
    for p in traffic_gen::churn(&cfg) {
        frames.push(p.timestamp, &p.to_bytes());
    }
    Workload {
        frames,
        stream: StreamConfig {
            idle_timeout: 30.0,
            // ~3% headroom above the plateau, as `exp_throughput --preset
            // scale` sizes it, so the slab's capacity clamp stays tight
            // around the peak and `bytes_per_flow` means something.
            max_flows: flows + flows / 32,
            ..stream_config(QuantMode::Int8, ResidentMode::Int8)
        },
        labels: None,
    }
}

/// A scan: tuple `i` sends one pure SYN; 64 tuples later the target answers
/// with RST|ACK — except every fourth target, which is filtered and never
/// answers, so its flow stays in the table until `finish`. (With every SYN
/// answered, exactly half the frames would be the cheap kind and the
/// per-frame median would sit on the edge between the two modes.)
fn syn_scan(seed: u64, shrink: usize) -> Workload {
    const ANSWER_LAG: usize = 64;
    let tuples = 80_000 / shrink;
    let mut rng = seed ^ 0x5ca9;
    let scanner = Ipv4Addr::from(0x0a00_0000 | (splitmix(&mut rng) as u32 & 0x00ff_ffff));
    let target_base = 0x2000_0000 | (splitmix(&mut rng) as u32 & 0x0fff_ffff);
    let probes: Vec<(Ipv4Addr, u16, u16, u32)> = (0..tuples)
        .map(|i| {
            let r = splitmix(&mut rng);
            (
                // Injective in `i`, so no two probes share a 4-tuple.
                Ipv4Addr::from(target_base.wrapping_add(i as u32)),
                1024 + (r as u16 % 60_000),
                [22, 23, 80, 443, 445, 3389, 8080][(r >> 16) as usize % 7],
                (r >> 32) as u32,
            )
        })
        .collect();

    // One frame every 5 us of capture time: the whole scan spans well under
    // the idle timeout, so nothing expires before `finish`.
    fn emit(frames: &mut Frames, src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), tcp: TcpHeader) {
        let ts = frames.len() as f64 / 200_000.0;
        let p = Packet::new(ts, Ipv4Header::new(src.0, dst.0, 64), tcp, Vec::new());
        frames.push(ts, &p.to_bytes());
    }
    let mut frames = Frames::default();
    for i in 0..tuples + ANSWER_LAG {
        if let Some(&(target, sport, dport, isn)) = probes.get(i) {
            let mut tcp = TcpHeader::new(sport, dport, isn, 0);
            tcp.flags = TcpFlags::SYN;
            emit(&mut frames, (scanner, sport), (target, dport), tcp);
        }
        // Every fourth target is filtered and stays silent.
        if i >= ANSWER_LAG && (i - ANSWER_LAG) % 4 != 3 {
            let (target, sport, dport, isn) = probes[i - ANSWER_LAG];
            let mut tcp = TcpHeader::new(dport, sport, 0, isn.wrapping_add(1));
            tcp.flags = TcpFlags::RST | TcpFlags::ACK;
            emit(&mut frames, (target, dport), (scanner, sport), tcp);
        }
    }
    Workload {
        frames,
        stream: stream_config(QuantMode::Off, ResidentMode::F32),
        labels: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_arena() {
        let mut f = Frames::default();
        f.push(0.5, &[1, 2, 3]);
        f.push(1.5, &[]);
        f.push(2.5, &[9]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.get(0), (0.5, &[1u8, 2, 3][..]));
        assert_eq!(f.get(1), (1.5, &[][..]));
        assert_eq!(f.get(2), (2.5, &[9u8][..]));
        assert_eq!(f.iter().count(), 3);
    }

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for spec in &SPECS {
            let a = spec.build(7, 20);
            let b = spec.build(7, 20);
            let c = spec.build(8, 20);
            assert!(a.frames.len() > 100, "{}: {}", spec.name, a.frames.len());
            assert!(a.frames.arena == b.frames.arena && a.frames.timestamps == b.frames.timestamps);
            assert!(
                a.frames.arena != c.frames.arena,
                "{} ignores the seed",
                spec.name
            );
        }
    }

    #[test]
    fn every_generated_frame_parses_or_is_a_fragment() {
        for spec in &SPECS {
            let w = spec.build(3, 20);
            let mut fragments = 0;
            for (ts, bytes) in w.frames.iter() {
                match Packet::from_bytes(ts, bytes) {
                    Ok(_) => {}
                    Err(net_packet::wire::ParseError::Fragment { .. }) => fragments += 1,
                    Err(e) => panic!("{}: unparsable frame: {e}", spec.name),
                }
            }
            assert_eq!(fragments > 0, spec.name == "mixed_frag", "{}", spec.name);
        }
    }

    #[test]
    fn syn_scan_has_more_syns_than_answers() {
        let w = spec("syn_scan").unwrap().build(1, 20);
        let syns = w
            .frames
            .iter()
            .filter(|(ts, b)| Packet::from_bytes(*ts, b).unwrap().tcp_flags() == TcpFlags::SYN)
            .count();
        assert_eq!(syns, 4000);
        assert_eq!(w.frames.len() - syns, 3000);
    }
}
