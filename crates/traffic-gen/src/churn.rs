//! Streaming flow-churn workload: millions of short-lived flows with a
//! heavy-tailed elephant/mice size mix, produced as an iterator instead of
//! materialized connections.
//!
//! [`generate`](crate::generate) builds whole [`Connection`]s in memory —
//! fine for training sets of a few thousand connections, hopeless for
//! exercising a million-flow table. This module instead keeps one ~32-byte
//! sketch per *concurrently open* flow and synthesizes packets on demand:
//!
//! * **Concurrency plateau.** The stream ramps up to
//!   [`ChurnConfig::concurrent_flows`] live flows (one new SYN per emitted
//!   packet), then holds that level by replacing every completed flow with
//!   a fresh one on a new 4-tuple. Flow IDs map injectively to client
//!   addresses, so tuples never collide within a run.
//! * **Elephant/mice mix.** Flow sizes (in data segments) are drawn from
//!   two log-normal distributions: most flows are mice of a few segments,
//!   a small [`ChurnConfig::p_elephant`] fraction are elephants spanning
//!   thousands. This reproduces the heavy-tailed size distribution that
//!   makes real flow tables churn: the mice dominate arrival rate, the
//!   elephants dominate table residency.
//! * **Abandonment.** A [`ChurnConfig::p_abandon`] fraction of flows stop
//!   mid-transfer without a FIN. The generator forgets them immediately,
//!   but a downstream flow table only reclaims them via idle eviction —
//!   this is what exercises idle expiry at scale.
//! * **Interleaving.** Each emitted packet advances one uniformly random
//!   live flow, so packets of different flows interleave heavily and the
//!   per-flow inter-packet gap is `concurrent_flows / pps` seconds on
//!   average. Timestamps advance by exactly `1/pps` per packet.
//!
//! Everything is driven by a seeded [`StdRng`]: two iterators built from
//! the same config yield byte-identical packet sequences.

use std::net::Ipv4Addr;

use net_packet::{Ipv4Header, Packet, TcpFlags, TcpHeader, TcpOption};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

/// Configuration for the churn workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// RNG seed; same seed + config = identical packet stream.
    pub seed: u64,
    /// Live-flow plateau the stream ramps up to and then holds.
    pub concurrent_flows: usize,
    /// Total packets to emit before the iterator ends.
    pub packets: usize,
    /// Fraction of flows drawn from the elephant size distribution.
    pub p_elephant: f64,
    /// Fraction of flows that stop mid-transfer without a FIN handshake.
    pub p_abandon: f64,
    /// Log-normal (mu of ln segments, sigma) for mouse flow sizes.
    pub mice_lognorm: (f64, f64),
    /// Log-normal (mu of ln segments, sigma) for elephant flow sizes.
    pub elephant_lognorm: (f64, f64),
    /// Hard cap on data segments per flow (keeps the tail finite).
    pub max_segments: u32,
    /// Aggregate packet rate; timestamps advance by `1/pps` per packet.
    pub pps: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0xe1e9,
            concurrent_flows: 10_000,
            packets: 200_000,
            p_elephant: 0.05,
            // Mice: median 6 segments; elephants: median ~400 with a fat
            // tail into the tens of thousands.
            p_abandon: 0.02,
            mice_lognorm: (6.0f64.ln(), 0.8),
            elephant_lognorm: (400.0f64.ln(), 1.0),
            max_segments: 50_000,
            pps: 200_000.0,
        }
    }
}

impl ChurnConfig {
    /// A churn config with the three knobs that matter most.
    pub fn new(seed: u64, concurrent_flows: usize, packets: usize) -> Self {
        ChurnConfig {
            seed,
            concurrent_flows,
            packets,
            ..ChurnConfig::default()
        }
    }
}

/// Counters accumulated while the stream runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Flows whose SYN has been emitted.
    pub flows_started: u64,
    /// Flows that completed their FIN handshake.
    pub flows_completed: u64,
    /// Flows dropped mid-transfer without a FIN.
    pub flows_abandoned: u64,
}

/// Per-flow lifecycle position.
const PH_SYN: u8 = 0;
const PH_SYNACK: u8 = 1;
const PH_ACK: u8 = 2;
const PH_DATA: u8 = 3;
const PH_FIN_C: u8 = 4;
const PH_FIN_S: u8 = 5;
const PH_LAST_ACK: u8 = 6;

/// Compact per-flow sketch: 28 bytes of state, no heap.
#[derive(Debug, Clone, Copy)]
struct ChurnFlow {
    client_ip: u32,
    server_ip: u32,
    isn_c: u32,
    isn_s: u32,
    /// Payload bytes sent so far (client → server).
    sent: u32,
    /// Data segments still to send.
    remaining: u32,
    client_port: u16,
    server_port: u16,
    payload_len: u16,
    phase: u8,
    /// Abandon (no FIN) once `remaining` hits zero.
    abandon: bool,
}

const SERVER_PORTS: [u16; 6] = [80, 443, 22, 25, 8080, 8443];

/// Streaming packet iterator over the churn workload.
pub struct ChurnStream {
    cfg: ChurnConfig,
    rng: StdRng,
    mice: LogNormal,
    elephants: LogNormal,
    flows: Vec<ChurnFlow>,
    next_id: u64,
    emitted: usize,
    time: f64,
    dt: f64,
    stats: ChurnStats,
}

/// Builds the churn stream for a config.
pub fn churn(cfg: &ChurnConfig) -> ChurnStream {
    let (m_mu, m_sigma) = cfg.mice_lognorm;
    let (e_mu, e_sigma) = cfg.elephant_lognorm;
    ChurnStream {
        rng: StdRng::seed_from_u64(cfg.seed),
        mice: LogNormal::new(m_mu, m_sigma).expect("mice lognormal params"),
        elephants: LogNormal::new(e_mu, e_sigma).expect("elephant lognormal params"),
        flows: Vec::with_capacity(cfg.concurrent_flows),
        next_id: 0,
        emitted: 0,
        time: 0.0,
        dt: 1.0 / cfg.pps.max(1.0),
        stats: ChurnStats::default(),
        cfg: cfg.clone(),
    }
}

impl ChurnStream {
    /// Counters so far (final after the iterator returns `None`).
    pub fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// Live flows currently tracked by the generator.
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    fn new_flow(&mut self) -> ChurnFlow {
        let id = self.next_id;
        self.next_id += 1;
        // Injective id → client address: unique /32 per flow for the first
        // 16M flows, then the port sweep keeps tuples distinct.
        let client_ip = 0x0A00_0000 | (id as u32 & 0x00FF_FFFF);
        let client_port = 32_768 + (id >> 24) as u16 % 28_000;
        let server_ip = 0xAC10_0000 | (id.wrapping_mul(7919) as u32 & 0xFF);
        let server_port = SERVER_PORTS[(id % SERVER_PORTS.len() as u64) as usize];
        let dist = if self.rng.gen_bool(self.cfg.p_elephant) {
            &self.elephants
        } else {
            &self.mice
        };
        let segments = dist
            .sample(&mut self.rng)
            .round()
            .clamp(1.0, self.cfg.max_segments as f64) as u32;
        ChurnFlow {
            client_ip,
            server_ip,
            isn_c: self.rng.gen(),
            isn_s: self.rng.gen(),
            sent: 0,
            remaining: segments,
            client_port,
            server_port,
            payload_len: if segments > 64 { 128 } else { 32 },
            phase: PH_SYN,
            abandon: self.rng.gen_bool(self.cfg.p_abandon),
        }
    }

    /// Emits flow `i`'s next packet and advances its lifecycle; replaces
    /// the flow with a fresh one when it finishes.
    fn step_flow(&mut self, i: usize) -> Packet {
        let ts = self.time;
        let f = &mut self.flows[i];
        let c = (Ipv4Addr::from(f.client_ip), f.client_port);
        let s = (Ipv4Addr::from(f.server_ip), f.server_port);
        let (pkt, done) = match f.phase {
            PH_SYN => {
                let mut tcp = TcpHeader::new(c.1, s.1, f.isn_c, 0);
                tcp.flags = TcpFlags::SYN;
                tcp.options.push(TcpOption::Mss(1460));
                f.phase = PH_SYNACK;
                (
                    Packet::new(ts, Ipv4Header::new(c.0, s.0, 64), tcp, Vec::new()),
                    false,
                )
            }
            PH_SYNACK => {
                let mut tcp = TcpHeader::new(s.1, c.1, f.isn_s, f.isn_c.wrapping_add(1));
                tcp.flags = TcpFlags::SYN | TcpFlags::ACK;
                tcp.options.push(TcpOption::Mss(1460));
                f.phase = PH_ACK;
                (
                    Packet::new(ts, Ipv4Header::new(s.0, c.0, 64), tcp, Vec::new()),
                    false,
                )
            }
            PH_ACK => {
                let mut tcp =
                    TcpHeader::new(c.1, s.1, f.isn_c.wrapping_add(1), f.isn_s.wrapping_add(1));
                tcp.flags = TcpFlags::ACK;
                f.phase = PH_DATA;
                (
                    Packet::new(ts, Ipv4Header::new(c.0, s.0, 64), tcp, Vec::new()),
                    false,
                )
            }
            PH_DATA => {
                let seq = f.isn_c.wrapping_add(1).wrapping_add(f.sent);
                let mut tcp = TcpHeader::new(c.1, s.1, seq, f.isn_s.wrapping_add(1));
                tcp.flags = TcpFlags::ACK | TcpFlags::PSH;
                let payload = vec![0x61u8; f.payload_len as usize];
                f.sent = f.sent.wrapping_add(f.payload_len as u32);
                f.remaining -= 1;
                let finished = f.remaining == 0;
                let abandon = f.abandon;
                if finished && !abandon {
                    f.phase = PH_FIN_C;
                }
                (
                    Packet::new(ts, Ipv4Header::new(c.0, s.0, 64), tcp, payload),
                    finished && abandon,
                )
            }
            PH_FIN_C => {
                let seq = f.isn_c.wrapping_add(1).wrapping_add(f.sent);
                let mut tcp = TcpHeader::new(c.1, s.1, seq, f.isn_s.wrapping_add(1));
                tcp.flags = TcpFlags::ACK | TcpFlags::FIN;
                f.phase = PH_FIN_S;
                (
                    Packet::new(ts, Ipv4Header::new(c.0, s.0, 64), tcp, Vec::new()),
                    false,
                )
            }
            PH_FIN_S => {
                // Server acks the client FIN and sends its own in one
                // segment; client data + client FIN = sent + 2 seq units.
                let ack = f.isn_c.wrapping_add(2).wrapping_add(f.sent);
                let mut tcp = TcpHeader::new(s.1, c.1, f.isn_s.wrapping_add(1), ack);
                tcp.flags = TcpFlags::ACK | TcpFlags::FIN;
                f.phase = PH_LAST_ACK;
                (
                    Packet::new(ts, Ipv4Header::new(s.0, c.0, 64), tcp, Vec::new()),
                    false,
                )
            }
            _ => {
                let seq = f.isn_c.wrapping_add(2).wrapping_add(f.sent);
                let mut tcp = TcpHeader::new(c.1, s.1, seq, f.isn_s.wrapping_add(2));
                tcp.flags = TcpFlags::ACK;
                (
                    Packet::new(ts, Ipv4Header::new(c.0, s.0, 64), tcp, Vec::new()),
                    true,
                )
            }
        };
        if done {
            if self.flows[i].abandon {
                self.stats.flows_abandoned += 1;
            } else {
                self.stats.flows_completed += 1;
            }
            let fresh = self.new_flow();
            self.flows[i] = fresh;
        }
        pkt
    }
}

impl Iterator for ChurnStream {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        if self.emitted >= self.cfg.packets {
            return None;
        }
        self.emitted += 1;
        self.time += self.dt;
        // Ramp phase: one brand-new SYN per packet until the plateau.
        let i = if self.flows.len() < self.cfg.concurrent_flows {
            let fresh = self.new_flow();
            self.flows.push(fresh);
            self.stats.flows_started += 1;
            self.flows.len() - 1
        } else {
            let i = self.rng.gen_range(0..self.flows.len());
            if self.flows[i].phase == PH_SYN {
                self.stats.flows_started += 1;
            }
            i
        };
        Some(self.step_flow(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn churn_is_deterministic() {
        let cfg = ChurnConfig::new(7, 50, 2_000);
        let a: Vec<Packet> = churn(&cfg).collect();
        let b: Vec<Packet> = churn(&cfg).collect();
        assert_eq!(a.len(), 2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_reaches_and_holds_the_plateau() {
        let cfg = ChurnConfig::new(11, 40, 5_000);
        let mut stream = churn(&cfg);
        for _ in 0..200 {
            stream.next().unwrap();
        }
        assert_eq!(stream.live_flows(), 40);
        for _ in 0..4_800 {
            stream.next().unwrap();
        }
        assert!(stream.next().is_none());
        assert_eq!(stream.live_flows(), 40);
        let stats = stream.stats();
        assert!(stats.flows_completed > 0, "{stats:?}");
        assert!(
            stats.flows_started >= stats.flows_completed + stats.flows_abandoned,
            "{stats:?}"
        );
    }

    #[test]
    fn churn_tuples_are_unique_and_sizes_heavy_tailed() {
        let cfg = ChurnConfig {
            p_abandon: 0.0,
            ..ChurnConfig::new(3, 30, 30_000)
        };
        let mut sizes: HashMap<(std::net::IpAddr, u16), u32> = HashMap::new();
        for p in churn(&cfg) {
            assert!(p.ip_checksum_valid() && p.transport_checksum_valid());
            if !p.payload.is_empty() {
                let src = p.src_addr();
                *sizes.entry((src, p.src_port())).or_insert(0) += 1;
            }
        }
        // Heavy tail: the largest completed flow dwarfs the median mouse.
        let mut counts: Vec<u32> = sizes.values().copied().collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let max = *counts.last().unwrap();
        assert!(median <= 20, "median {median}");
        assert!(max > 10 * median, "max {max} median {median}");
    }

    #[test]
    fn churn_timestamps_advance_uniformly() {
        let cfg = ChurnConfig::new(5, 10, 100);
        let pkts: Vec<Packet> = churn(&cfg).collect();
        let dt = 1.0 / cfg.pps;
        for (k, p) in pkts.iter().enumerate() {
            assert!((p.timestamp - dt * (k + 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn churn_flows_form_valid_tcp_lifecycles() {
        // Every completed flow: SYN, SYN/ACK, handshake ACK, data, FIN in
        // both directions. Spot-check via flag accounting.
        let cfg = ChurnConfig {
            p_abandon: 0.0,
            ..ChurnConfig::new(9, 5, 3_000)
        };
        let mut stream = churn(&cfg);
        let mut syns = 0u64;
        let mut fins = 0u64;
        for p in &mut stream {
            if p.tcp().flags.contains(TcpFlags::SYN) && !p.tcp().flags.contains(TcpFlags::ACK) {
                syns += 1;
            }
            if p.tcp().flags.contains(TcpFlags::FIN) {
                fins += 1;
            }
        }
        let stats = stream.stats();
        assert_eq!(syns, stats.flows_started);
        assert_eq!(
            fins,
            2 * stats.flows_completed + countable_partial_fins(&stream)
        );
    }

    fn countable_partial_fins(stream: &ChurnStream) -> u64 {
        // Flows frozen mid-teardown when the packet budget ran out.
        stream
            .flows
            .iter()
            .map(|f| match f.phase {
                PH_FIN_S => 1,
                PH_LAST_ACK => 2,
                _ => 0,
            })
            .sum()
    }
}
