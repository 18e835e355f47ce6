//! Human-readable renderers: a `top`-style text view of per-shard
//! [`ShardSnapshot`]s and a classic hexdump for the capture head/tail
//! view.

use crate::hist::Stage;
use crate::ShardSnapshot;
use std::fmt::Write as _;

/// Renders per-shard counters — a hub snapshot or a run's stats — as a
/// fixed-width table with a TOTAL row ([`ShardSnapshot::total`]) when
/// there is more than one shard, followed by the non-empty stage-latency
/// summaries: the `clap-top` view of a running engine.
pub fn render_snapshot(shards: &[ShardSnapshot]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>10} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>6} {:>8}",
        "shard",
        "pushed",
        "scored",
        "dropped",
        "quarant",
        "in-flight",
        "live",
        "peak",
        "closed",
        "waits",
        "restarts"
    );
    let mut row = |label: String, s: &ShardSnapshot| {
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>10} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>6} {:>8}",
            label,
            s.pushed,
            s.scored,
            s.dropped,
            s.quarantined,
            s.in_flight,
            s.stream.live_flows,
            s.stream.flows_peak,
            s.flows_closed,
            s.full_waits,
            s.restarts
        );
    };
    for (i, s) in shards.iter().enumerate() {
        row(i.to_string(), s);
    }
    if shards.len() > 1 {
        row("TOTAL".to_string(), &ShardSnapshot::total(shards));
    }

    let mut stage_lines = String::new();
    for (i, s) in shards.iter().enumerate() {
        for stage in Stage::ALL {
            let sum = s.stages[stage.index()];
            if sum.count == 0 {
                continue;
            }
            let mean = sum.sum_ns / sum.count;
            let _ = writeln!(
                stage_lines,
                "  shard {i:>2}  {:<9} n={:<8} p50={:<8} p99={:<8} max={:<10} mean={}",
                stage.name(),
                sum.count,
                sum.p50_ns,
                sum.p99_ns,
                sum.max_ns,
                mean
            );
        }
    }
    if !stage_lines.is_empty() {
        out.push_str("stage latencies (sampled, ns):\n");
        out.push_str(&stage_lines);
    }
    out
}

/// Classic 16-bytes-per-row hexdump with an ASCII gutter. `base` offsets
/// the printed addresses, so a windowed dump (e.g. the tail of a
/// capture) shows its true file offsets.
pub fn hexdump(bytes: &[u8], base: usize) -> String {
    let mut out = String::new();
    for (row, chunk) in bytes.chunks(16).enumerate() {
        let _ = write!(out, "{:08x}  ", base + row * 16);
        for i in 0..16 {
            match chunk.get(i) {
                Some(b) => {
                    let _ = write!(out, "{b:02x} ");
                }
                None => out.push_str("   "),
            }
            if i == 7 {
                out.push(' ');
            }
        }
        out.push(' ');
        out.push('|');
        for b in chunk {
            out.push(if b.is_ascii_graphic() || *b == b' ' {
                *b as char
            } else {
                '.'
            });
        }
        out.push('|');
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_render_has_rows_and_totals() {
        let mut snap = vec![ShardSnapshot::default(); 2];
        snap[0].pushed = 10;
        snap[0].scored = 10;
        snap[1].pushed = 5;
        snap[1].scored = 4;
        snap[1].dropped = 1;
        snap[1].stages[Stage::Gru.index()].count = 3;
        snap[1].stages[Stage::Gru.index()].sum_ns = 3000;
        snap[1].stages[Stage::Gru.index()].max_ns = 1500;
        let text = render_snapshot(&snap);
        assert!(text.contains("shard"), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("15"), "summed pushed: {text}");
        assert!(text.contains("gru"), "{text}");
        assert!(text.contains("mean=1000"), "{text}");
    }

    #[test]
    fn single_shard_render_skips_totals() {
        assert!(!render_snapshot(&[ShardSnapshot::default()]).contains("TOTAL"));
    }

    #[test]
    fn hexdump_rows_offsets_and_ascii() {
        let bytes: Vec<u8> = (0u8..40).collect();
        let dump = hexdump(&bytes, 0x100);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("00000100  00 01 02"), "{}", lines[0]);
        assert!(lines[1].starts_with("00000110"), "{}", lines[1]);
        assert!(lines[0].contains('|'), "{}", lines[0]);
        let text = hexdump(b"Hi!\x01", 0);
        assert!(text.contains("|Hi!.|"), "{text}");
    }
}
