//! Seed-deterministic fault injection for the supervised sharded engine.
//!
//! A [`FaultPlan`] is a schedule of faults keyed on the *global arrival
//! index* of the packet stream — the same index the dispatcher tags
//! packets with — so a plan is a pure value: replaying the same stream
//! under the same plan reproduces the same failures, byte for byte. The
//! supervisor and dispatcher consult the plan at well-defined points:
//!
//! * [`Fault::PanicAt`] — the worker panics *inside* the supervised
//!   per-packet region while scoring that packet. Exercises quarantine +
//!   fresh-flow-table restart; the run completes.
//! * [`Fault::KillAt`] — the worker dies *outside* the supervised region
//!   (models an unrecoverable failure). Exercises the hard-death path:
//!   the run returns a `ShardRunError` carrying the survivors' results.
//! * [`Fault::StallAt`] — the worker sleeps before consuming that packet
//!   (a slow consumer). Under a small ring this backs up the dispatcher
//!   and, with a tight watchdog limit, trips the stuck-shard detector.
//! * [`Fault::FullBurst`] — the dispatcher treats the owning shard's ring
//!   as full for every push in an arrival range. This is how the shed
//!   policies (`DropNewest`, `Degrade`) are tested deterministically:
//!   real ring occupancy depends on thread scheduling, a forced burst
//!   does not.
//! * [`Fault::MalformAt`] — the worker scores [`malform`]'s
//!   garbage-header mutation of the packet in its place, inside the
//!   supervised region (4-tuple preserved, so flow identity and shard
//!   assignment are unchanged).
//!
//! Plans come from three constructors: [`FaultPlan::with`] (explicit,
//! for targeted tests), [`FaultPlan::randomized`] (a seed-deterministic
//! schedule of *recoverable* faults, for property tests), and
//! [`FaultPlan::parse`] (the `--fault-plan` CLI grammar of the bench
//! binaries).

use net_packet::{IpHeader, Packet, Transport};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Marker every injected panic message carries, so
/// [`silence_injected_panics`] can tell expected fault noise from a real
/// bug's panic report.
pub const INJECTED_TAG: &str = "injected fault";

/// One injected fault, keyed on the global arrival index (see the module
/// docs for the semantics of each kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Worker panics inside the supervised region while scoring this
    /// packet: quarantined, shard restarts, run completes.
    PanicAt { arrival: u64 },
    /// Worker dies outside the supervised region on this packet: the run
    /// finishes degraded and reports a `ShardRunError`.
    KillAt { arrival: u64 },
    /// Worker sleeps `millis` before consuming this packet.
    StallAt { arrival: u64, millis: u64 },
    /// Dispatcher treats the owning shard's ring as full for every
    /// arrival in `from..until`.
    FullBurst { from: u64, until: u64 },
    /// Worker scores [`malform`]'s mutation of this packet in its place.
    MalformAt { arrival: u64 },
}

/// A deterministic schedule of injected faults (possibly empty — the
/// default plan injects nothing and costs one slice scan per packet).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: adds one fault to the schedule.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True when the plan contains a hard kill — the only fault kind
    /// after which a run cannot complete cleanly.
    pub fn has_kills(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::KillAt { .. }))
    }

    /// Should the worker panic (supervised) while scoring this arrival?
    pub fn panic_at(&self, arrival: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::PanicAt { arrival: a } if *a == arrival))
    }

    /// Should the worker die hard (unsupervised) on this arrival?
    pub fn kill_at(&self, arrival: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::KillAt { arrival: a } if *a == arrival))
    }

    /// Stall duration before consuming this arrival, if any (the longest
    /// wins when several stalls target one packet).
    pub fn stall_at(&self, arrival: u64) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::StallAt { arrival: a, millis } if *a == arrival => Some(*millis),
                _ => None,
            })
            .max()
    }

    /// Should the dispatcher treat the target ring as full at this
    /// arrival?
    pub fn forced_full(&self, arrival: u64) -> bool {
        self.faults.iter().any(
            |f| matches!(f, Fault::FullBurst { from, until } if (*from..*until).contains(&arrival)),
        )
    }

    /// Should this arrival be replaced with its malformed mutation?
    pub fn malform_at(&self, arrival: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::MalformAt { arrival: a } if *a == arrival))
    }

    /// A seed-deterministic schedule of 1–4 *recoverable* faults (no
    /// hard kills) over a stream of `packets` arrivals: panics, short
    /// stalls, forced-full bursts and malformed packets. Same seed, same
    /// plan — the property tests lean on that to assert run-to-run
    /// determinism under faults.
    pub fn randomized(seed: u64, packets: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let span = packets.max(1);
        let mut plan = FaultPlan::none();
        for _ in 0..rng.gen_range(1..=4usize) {
            let fault = match rng.gen_range(0..4u8) {
                0 => Fault::PanicAt {
                    arrival: rng.gen_range(0..span),
                },
                1 => Fault::StallAt {
                    arrival: rng.gen_range(0..span),
                    millis: rng.gen_range(1..4),
                },
                2 => {
                    let from = rng.gen_range(0..span);
                    Fault::FullBurst {
                        from,
                        until: (from + rng.gen_range(1..24)).min(span),
                    }
                }
                _ => Fault::MalformAt {
                    arrival: rng.gen_range(0..span),
                },
            };
            plan = plan.with(fault);
        }
        plan
    }

    /// Parses the `--fault-plan` CLI grammar: a comma-separated list of
    /// `panic@N`, `kill@N`, `stall@N:MS` (`MS` defaults to 10),
    /// `burst@A..B`, `malform@N`, or `random@SEED` (expands to
    /// [`randomized`](Self::randomized) over `packets` arrivals).
    pub fn parse(spec: &str, packets: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let token = token.trim();
            let (kind, rest) = token
                .split_once('@')
                .ok_or_else(|| format!("fault `{token}`: expected `kind@position`"))?;
            let num = |s: &str| -> Result<u64, String> {
                s.parse()
                    .map_err(|_| format!("fault `{token}`: `{s}` is not a number"))
            };
            let fault = match kind {
                "panic" => Fault::PanicAt {
                    arrival: num(rest)?,
                },
                "kill" => Fault::KillAt {
                    arrival: num(rest)?,
                },
                "stall" => match rest.split_once(':') {
                    Some((a, ms)) => Fault::StallAt {
                        arrival: num(a)?,
                        millis: num(ms)?,
                    },
                    None => Fault::StallAt {
                        arrival: num(rest)?,
                        millis: 10,
                    },
                },
                "burst" => {
                    let (from, until) = rest
                        .split_once("..")
                        .ok_or_else(|| format!("fault `{token}`: expected `burst@A..B`"))?;
                    let (from, until) = (num(from)?, num(until)?);
                    if until <= from {
                        return Err(format!("fault `{token}`: empty burst range"));
                    }
                    Fault::FullBurst { from, until }
                }
                "malform" => Fault::MalformAt {
                    arrival: num(rest)?,
                },
                "random" => {
                    let random = FaultPlan::randomized(num(rest)?, packets);
                    for &f in random.faults() {
                        plan = plan.with(f);
                    }
                    continue;
                }
                other => {
                    return Err(format!(
                        "fault `{token}`: unknown kind `{other}` \
                         (expected panic/kill/stall/burst/malform/random)"
                    ))
                }
            };
            plan = plan.with(fault);
        }
        Ok(plan)
    }
}

/// Deterministic garbage-header mutation of a packet: every field a
/// header-parsing or feature-extraction bug could trip on is driven to a
/// hostile value, while the 4-tuple and timestamp are preserved so the
/// packet still belongs to the same flow, the same shard, and the same
/// position in stream time. The scoring pipeline models invalid fields
/// by design (attacks store them deliberately), so a malformed packet
/// must be *scored*, not crash the worker — the fault tests pin that.
pub fn malform(p: &Packet) -> Packet {
    let mut m = p.clone();
    match &mut m.ip {
        IpHeader::V4(h) => {
            h.version = 0xf;
            h.ihl = 1; // below the minimum legal 5
            h.total_length = u16::MAX; // wildly longer than the packet
            h.ttl = 0;
            h.checksum = !h.checksum;
        }
        IpHeader::V6(h) => {
            h.version = 0xf;
            h.payload_length = u16::MAX;
            h.hop_limit = 0;
        }
    }
    match &mut m.transport {
        Transport::Tcp(t) => {
            t.data_offset = 3; // below the minimum legal 5
            t.seq = u32::MAX;
            t.ack = u32::MAX;
            t.window = 0;
            t.urgent = u16::MAX;
            t.checksum = !t.checksum;
        }
        Transport::Udp(u) => {
            u.length = u16::MAX;
            u.checksum = !u.checksum;
        }
    }
    m
}

/// Installs (once, process-wide) a panic hook that swallows the report
/// of *injected* panics — fault suites would otherwise spray hundreds of
/// expected `injected fault` backtraces over the test output. Any panic
/// whose payload does not carry [`INJECTED_TAG`] still reaches the
/// previously installed hook untouched, so real bugs keep their reports.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|msg| msg.contains(INJECTED_TAG));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_lookups_match_schedule() {
        let plan = FaultPlan::none()
            .with(Fault::PanicAt { arrival: 3 })
            .with(Fault::KillAt { arrival: 9 })
            .with(Fault::StallAt {
                arrival: 5,
                millis: 7,
            })
            .with(Fault::FullBurst {
                from: 10,
                until: 12,
            })
            .with(Fault::MalformAt { arrival: 1 });
        assert!(plan.panic_at(3) && !plan.panic_at(4));
        assert!(plan.kill_at(9) && !plan.kill_at(3));
        assert_eq!(plan.stall_at(5), Some(7));
        assert_eq!(plan.stall_at(6), None);
        assert!(plan.forced_full(10) && plan.forced_full(11));
        assert!(!plan.forced_full(12), "burst range is half-open");
        assert!(plan.malform_at(1) && !plan.malform_at(2));
        assert!(plan.has_kills());
        assert!(!FaultPlan::none().has_kills());
    }

    #[test]
    fn fault_plan_randomized_is_seed_deterministic() {
        let a = FaultPlan::randomized(42, 500);
        let b = FaultPlan::randomized(42, 500);
        assert_eq!(a, b, "same seed must yield the same plan");
        assert!(!a.is_empty());
        assert!(!a.has_kills(), "randomized plans stay recoverable");
        let c = FaultPlan::randomized(43, 500);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn fault_plan_parse_round_trips_the_grammar() {
        let plan = FaultPlan::parse("panic@12, stall@30:5,burst@40..60,malform@7,kill@99", 100)
            .expect("valid spec");
        assert_eq!(
            plan.faults(),
            &[
                Fault::PanicAt { arrival: 12 },
                Fault::StallAt {
                    arrival: 30,
                    millis: 5
                },
                Fault::FullBurst {
                    from: 40,
                    until: 60
                },
                Fault::MalformAt { arrival: 7 },
                Fault::KillAt { arrival: 99 },
            ]
        );
        assert_eq!(
            FaultPlan::parse("stall@8", 10).unwrap().stall_at(8),
            Some(10),
            "stall millis default to 10"
        );
        let random = FaultPlan::parse("random@42", 500).unwrap();
        assert_eq!(random, FaultPlan::randomized(42, 500));
        assert_eq!(FaultPlan::parse("", 10).unwrap(), FaultPlan::none());
        for bad in ["panic", "panic@x", "burst@5..5", "burst@9", "flood@3"] {
            assert!(FaultPlan::parse(bad, 10).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn fault_malform_keeps_flow_identity() {
        use net_packet::{CanonicalKey, Ipv4Header, TcpFlags, TcpHeader};
        use std::net::Ipv4Addr;
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
        let mut tcp = TcpHeader::new(1234, 80, 77, 0);
        tcp.flags = TcpFlags::SYN;
        let p = Packet::new(1.5, ip, tcp, vec![1, 2, 3]);
        let m = malform(&p);
        assert_eq!(CanonicalKey::of(&m), CanonicalKey::of(&p));
        assert_eq!(m.timestamp, p.timestamp);
        assert_ne!(m.tcp().data_offset, p.tcp().data_offset);
        assert_ne!(m.ipv4().total_length, p.ipv4().total_length);
    }
}
