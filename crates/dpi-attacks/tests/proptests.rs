//! Property-based tests over the whole strategy registry.

use dpi_attacks::{registry, Mechanic};
use net_packet::Connection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// True when packet `i` carries data that starts strictly inside sequence
/// space already covered by an earlier same-direction segment, without
/// exactly repeating one (benign overlaps — retransmissions and old
/// duplicates — repeat a prior `(seq, len)` pair verbatim).
fn overlaps_no_prior_segment(conn: &Connection, i: usize) -> bool {
    let p = &conn.packets[i];
    if p.payload.is_empty() {
        return false;
    }
    let dir = conn.direction(i);
    let (seq, end) = (p.tcp().seq, p.tcp().seq.wrapping_add(p.seq_len()));
    let mut regressed = false;
    for (j, q) in conn.packets.iter().enumerate().take(i) {
        if conn.direction(j) != dir {
            continue;
        }
        let (qseq, qend) = (q.tcp().seq, q.tcp().seq.wrapping_add(q.seq_len()));
        if qseq == seq && qend == end {
            return false; // exact retransmission — benign-shaped
        }
        if qend != qseq && (seq.wrapping_sub(qend) as i32) < 0 {
            regressed = true;
        }
    }
    regressed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every strategy, applied to any generated connection with any RNG
    /// stream: never panics, ground-truth indices valid and sorted,
    /// original packet order preserved.
    #[test]
    fn strategies_are_total_and_sound(seed in 0u64..200, rng_seed in 0u64..50, strat_idx in 0usize..76) {
        let conns = traffic_gen::dataset(seed, 1);
        let conn = &conns[0];
        let strategy = &registry()[strat_idx];
        let mut rng = StdRng::seed_from_u64(rng_seed);
        if let Some(result) = strategy.apply(conn, &mut rng) {
            // Indices valid and strictly increasing.
            for w in result.adversarial_indices.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &i in &result.adversarial_indices {
                prop_assert!(i < result.connection.len());
            }
            // Original benign packets appear in order (for non-in-place
            // strategies the subsequence is exact; ModifySyn and FragOverlap
            // replace one packet in place).
            if !matches!(
                strategy.mechanic,
                Mechanic::ModifySyn { .. } | Mechanic::FragOverlap
            ) {
                let mut iter = result.connection.packets.iter();
                for orig in &conn.packets {
                    prop_assert!(
                        iter.any(|p| p == orig),
                        "{}: benign packet lost or reordered",
                        strategy.id
                    );
                }
            }
            // Key is unchanged: attacks never alter the 4-tuple.
            prop_assert_eq!(result.connection.key, conn.key);
            // Capture timestamps stay monotone.
            for w in result.connection.packets.windows(2) {
                prop_assert!(w[1].timestamp >= w[0].timestamp - 1e-9);
            }
        }
    }

    /// Adversarial packets always differ from a well-formed baseline in at
    /// least one of the ways CLAP can observe: structural rejection,
    /// out-of-window placement, exotic options, or anomalous flags.
    #[test]
    fn adversarial_packets_are_observable(seed in 0u64..100, strat_idx in 0usize..76) {
        use net_packet::TcpFlags;
        let conns = traffic_gen::dataset(seed, 1);
        let strategy = &registry()[strat_idx];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        if let Some(result) = strategy.apply(&conns[0], &mut rng) {
            let mut tracker = tcp_state::TcpTracker::new();
            let labels: Vec<_> = result
                .connection
                .packets
                .iter()
                .enumerate()
                .map(|(i, p)| tracker.process(p, result.connection.direction(i)))
                .collect();
            for &i in &result.adversarial_indices {
                let p = &result.connection.packets[i];
                let observable = !labels[i].in_window
                    || !tcp_state::TcpTracker::segment_acceptable(p, p.checksums())
                    // Conflicting fragment reassembly (frag-overlap family)
                    // is recorded in the packet metadata and breaks the
                    // semantic-equivalence feature (#51).
                    || p.reassembly.as_ref().is_some_and(|r| r.conflicting)
                    || p.tcp().has_md5()
                    || p.tcp().user_timeout().is_some()
                    || p.tcp().urgent != 0
                    || p.tcp().flags.contains(TcpFlags::RST)
                    || p.tcp().flags.contains(TcpFlags::FIN)
                    || p.tcp().flags.contains(TcpFlags::SYN)
                    || p.tcp().window_scale().is_some_and(|w| w > 14)
                    // TTL-decrement evasion: benign TTLs are base − hops
                    // (≥ 39 for every generator profile), so a hop-limited
                    // shadow packet trips the out-of-range amplification
                    // feature on the raw TTL slot (Table 7 #47).
                    || p.ipv4().ttl <= 4
                    // A data-bearing segment without ACK: benign traffic
                    // only omits ACK on the initial SYN, which is empty, so
                    // the ACK bit of the flag one-hot (#9) exposes this.
                    || (!p.tcp().flags.contains(TcpFlags::ACK) && !p.payload.is_empty())
                    // Overlapping injection: new data starting inside
                    // already-consumed sequence space without repeating a
                    // genuine segment (benign overlaps are exact
                    // retransmissions) — a relative-SEQ (#2) regression the
                    // RNN context observes.
                    || overlaps_no_prior_segment(&result.connection, i);
                prop_assert!(
                    observable,
                    "{}: adversarial packet {} indistinguishable from benign",
                    strategy.id,
                    i
                );
            }
        }
    }
}
