//! Supervision primitives for the sharded engine: quarantine records and
//! the typed error a degraded run returns instead of a bare panic.
//!
//! The design constraint is that a shard's accounting must survive the
//! shard's own death: if the worker thread panics outside the supervised
//! per-packet region, its local counters die with it. So every counter a
//! failure report needs lives in the shared telemetry hub
//! (`clap_telemetry::TelemetryHub`, one `WorkerCells` region per shard)
//! — owned by the [`ShardedStreamScorer`] and *shared by reference* into
//! the scoped worker — and the worker updates it wait-free as it goes.
//! Any thread can take a coherent snapshot mid-run; joining the (dead or
//! alive) worker synchronizes the final values, after which the
//! dispatcher reads them into the run's stats ([`ShardedRun::stats`]).
//! A dead worker's quarantine log survives the same way: it lives in a
//! per-shard slot the dispatching thread owns, not on the worker's
//! stack.
//!
//! [`ShardedRun::stats`]: super::ShardedRun::stats
//! [`ShardedStreamScorer`]: super::ShardedStreamScorer

use net_packet::CanonicalKey;

/// One quarantined packet: a panic inside the supervised scoring region,
/// logged with the flow identity and the packet's global arrival index.
/// The key is the *canonical* (order-normalized) 4-tuple — orientation
/// may not have resolved by the time the packet blew up, so the oriented
/// `FlowKey` might not exist yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Shard whose worker panicked.
    pub shard: usize,
    /// Global arrival index of the offending packet.
    pub arrival: u64,
    /// Canonical 4-tuple of the offending packet.
    pub key: CanonicalKey,
    /// The panic payload, stringified.
    pub panic: String,
}

impl std::fmt::Display for Quarantined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} quarantined packet #{} of flow {:?}: {}",
            self.shard, self.arrival, self.key, self.panic
        )
    }
}

/// Why a shard failed hard (as opposed to recovering via quarantine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailureKind {
    /// The worker thread died: a panic escaped the supervised region.
    /// Carries the stringified panic payload.
    Died(String),
    /// The watchdog declared the shard stuck: its ingest ring stayed
    /// full while its heartbeat froze at this reading for the configured
    /// iteration limit. The dispatcher stopped feeding it; if the worker
    /// later recovers, its verdicts are still merged.
    Stuck { heartbeat: u64 },
}

/// One failed shard of a degraded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    pub shard: usize,
    pub kind: ShardFailureKind,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ShardFailureKind::Died(msg) => {
                write!(f, "shard {} worker died: {}", self.shard, msg)
            }
            ShardFailureKind::Stuck { heartbeat } => write!(
                f,
                "shard {} declared stuck (ring full, heartbeat frozen at {})",
                self.shard, heartbeat
            ),
        }
    }
}

/// A sharded run in which at least one shard failed hard. This is an
/// error that *carries the partial result*: the surviving shards'
/// verdicts (merged in the usual arrival order) and every shard's stats
/// — including the failed ones', whose counters survive in the shared
/// telemetry — so a caller can keep serving N-1 shards' worth of
/// verdicts and alert on the failure instead of losing the whole run.
#[derive(Debug)]
pub struct ShardRunError {
    /// The failed shards, ordered by shard index.
    pub failures: Vec<ShardFailure>,
    /// Verdicts and per-shard stats of the degraded run.
    pub partial: super::ShardedRun,
}

impl std::fmt::Display for ShardRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} shards failed (",
            self.failures.len(),
            self.partial.stats.len()
        )?;
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{failure}")?;
        }
        write!(
            f,
            "); {} verdicts from surviving shards retained",
            self.partial.verdicts.len()
        )
    }
}

impl std::error::Error for ShardRunError {}

/// Stringifies a panic payload (`&str` and `String` payloads verbatim,
/// anything else a placeholder) for quarantine and failure records.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_failure_messages_name_the_shard() {
        let died = ShardFailure {
            shard: 3,
            kind: ShardFailureKind::Died("boom".into()),
        };
        assert_eq!(died.to_string(), "shard 3 worker died: boom");
        let stuck = ShardFailure {
            shard: 1,
            kind: ShardFailureKind::Stuck { heartbeat: 42 },
        };
        assert!(stuck.to_string().contains("shard 1"));
        assert!(stuck.to_string().contains("42"));
    }

    #[test]
    fn shard_panic_message_handles_payload_kinds() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static".to_string());
        assert_eq!(panic_message(s.as_ref()), "static");
        let s: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_message(s.as_ref()), "literal");
        let s: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(panic_message(s.as_ref()), "<non-string panic payload>");
    }
}
