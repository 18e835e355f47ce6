//! Per-stage latency histograms: fixed-bucket log2 histograms with no
//! allocation and no locks, plus the sampling clock that feeds them from
//! the scoring hot path.
//!
//! # Bucket scheme
//!
//! Each [`Histogram`] is 64 relaxed `AtomicU64` buckets; a sample of `n`
//! nanoseconds lands in bucket `floor(log2(max(n, 1)))`, i.e. bucket `b`
//! covers `[2^b, 2^(b+1))` ns (bucket 0 also absorbs 0 ns). 64 buckets
//! cover the full `u64` nanosecond range, so recording never saturates
//! or allocates. Alongside the buckets sit `count`, `sum` and `max`
//! (`fetch_max`), all relaxed: histograms are statistics, not
//! synchronization, and tolerate cross-field skew.
//!
//! Quantiles are reconstructed by walking the cumulative bucket counts
//! and reporting the matched bucket's *lower bound* — a ≤2× under-
//! estimate by construction, which is the usual log2-histogram deal and
//! plenty for p50/p99 trend lines.
//!
//! # Sampling
//!
//! Counters are always on; the *clock reads* happen only on a recorder
//! that has been attached to a shard's [`StageHists`]. An attached
//! [`StageRecorder::sample`] starts a [`LapClock`] for one packet in
//! [`SAMPLE_EVERY`], and each [`LapClock::lap`] records the nanoseconds
//! since the previous lap under the given [`Stage`]. An unattached
//! recorder costs the hot path one `Option` load and a predictable
//! branch per packet. The attached cost was measured at ≈0 % ± 1 % of
//! streaming throughput (`exp_throughput --max-telemetry-overhead`
//! gates it at 2 %), which is why no build setting guards it.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pipeline stages timed by the stage histograms, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Wire bytes → [`Packet`] (timed by the capture replay harness).
    ///
    /// [`Packet`]: ../../net_packet/struct.Packet.html
    Parse = 0,
    /// Per-packet feature extraction + TCP state tracking.
    Extract = 1,
    /// GRU recurrence step (per packet).
    Gru = 2,
    /// Autoencoder window reconstruction + error scoring.
    AeWindow = 3,
    /// End-of-run verdict merge (sharded dispatcher only).
    Merge = 4,
}

/// Number of [`Stage`]s (array dimension for per-stage storage).
pub const STAGES: usize = 5;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Parse,
        Stage::Extract,
        Stage::Gru,
        Stage::AeWindow,
        Stage::Merge,
    ];

    /// Stable index (the discriminant).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Extract => "extract",
            Stage::Gru => "gru",
            Stage::AeWindow => "ae-window",
            Stage::Merge => "merge",
        }
    }
}

/// Number of log2 buckets (covers the whole u64 nanosecond range).
pub const BUCKETS: usize = 64;

/// Record one sampled packet in every [`SAMPLE_EVERY`] (power of two).
pub const SAMPLE_EVERY: u64 = 32;

/// A lock-free fixed-bucket log2 histogram (see the module docs for the
/// bucket scheme). Recording is a handful of relaxed RMWs; it is safe
/// from any number of threads.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: `floor(log2(max(n, 1)))`.
#[inline]
fn bucket_of(nanos: u64) -> usize {
    (63 - nanos.max(1).leading_zeros()) as usize
}

/// Lower bound of a bucket in nanoseconds (bucket 0 starts at 0).
#[inline]
fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << b
    }
}

impl Histogram {
    /// Records one sample of `nanos` nanoseconds.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The quantile's bucket lower bound in ns (0 if empty), `q` in
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(b);
            }
        }
        // Racing recorders can leave `count` ahead of the bucket sums;
        // the highest non-empty bucket is the honest answer then.
        bucket_floor(
            self.buckets
                .iter()
                .rposition(|b| b.load(Ordering::Relaxed) > 0)
                .unwrap_or(0),
        )
    }

    /// Condenses the histogram into a [`StageSummary`].
    pub fn summary(&self) -> StageSummary {
        StageSummary {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            p50_ns: self.quantile(0.50),
            p99_ns: self.quantile(0.99),
            max_ns: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Condensed view of one stage's histogram at a snapshot instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns) — `sum_ns / count` is the mean.
    pub sum_ns: u64,
    /// Median bucket lower bound (ns).
    pub p50_ns: u64,
    /// 99th-percentile bucket lower bound (ns).
    pub p99_ns: u64,
    /// Largest recorded sample (ns).
    pub max_ns: u64,
}

/// One histogram per [`Stage`] — a shard's full latency profile.
#[derive(Debug, Default)]
pub struct StageHists {
    hists: [Histogram; STAGES],
}

impl StageHists {
    /// Records one sample under `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.hists[stage.index()].record(nanos);
    }

    /// The histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.hists[stage.index()]
    }

    /// Summaries for all stages, indexed by [`Stage`] discriminant.
    pub fn summaries(&self) -> [StageSummary; STAGES] {
        std::array::from_fn(|i| self.hists[i].summary())
    }
}

/// The scorer-side sampling state: an optional attachment to a shard's
/// [`StageHists`] plus the 1-in-[`SAMPLE_EVERY`] tick. Owned (not
/// shared) by one scorer, so ticking is plain field arithmetic.
#[derive(Debug, Default)]
pub struct StageRecorder {
    hists: Option<Arc<StageHists>>,
    tick: u64,
}

impl StageRecorder {
    /// A recorder with no attachment: `sample` always returns `None`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the recorder to a shard's histograms.
    pub fn attach(&mut self, hists: Arc<StageHists>) {
        self.hists = Some(hists);
    }

    /// The attached histograms, if any.
    pub fn hists(&self) -> Option<&Arc<StageHists>> {
        self.hists.as_ref()
    }

    /// Per-packet sampling decision: starts a [`LapClock`] for one
    /// packet in [`SAMPLE_EVERY`] when attached, `None` otherwise.
    #[inline]
    pub fn sample(&mut self) -> Option<LapClock<'_>> {
        let hists = self.hists.as_deref()?;
        self.tick = self.tick.wrapping_add(1);
        if self.tick & (SAMPLE_EVERY - 1) != 0 {
            return None;
        }
        Some(LapClock {
            last: Instant::now(),
            hists,
        })
    }

    /// Unconditional (non-sampled) clock for once-per-batch timing —
    /// `Some` whenever attached.
    #[inline]
    pub fn start(&self) -> Option<LapClock<'_>> {
        let hists = self.hists.as_deref()?;
        Some(LapClock {
            last: Instant::now(),
            hists,
        })
    }
}

/// A running stage clock: each [`lap`](LapClock::lap) records the time
/// since the previous lap under the given stage and restarts the clock.
#[derive(Debug)]
pub struct LapClock<'a> {
    last: Instant,
    hists: &'a StageHists,
}

impl LapClock<'_> {
    /// Records the nanoseconds since the previous lap under `stage`.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        self.hists
            .record(stage, (now - self.last).as_nanos() as u64);
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(10), 1024);
    }

    #[test]
    fn quantiles_report_bucket_floors() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for _ in 0..98 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20);
        h.record(1 << 21);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 64);
        assert_eq!(s.p99_ns, 1 << 20);
        assert_eq!(s.max_ns, 1 << 21);
        assert_eq!(s.sum_ns, 98 * 100 + (1 << 20) + (1 << 21));
    }

    #[test]
    fn stage_hists_index_by_stage() {
        let sh = StageHists::default();
        sh.record(Stage::Gru, 500);
        sh.record(Stage::Gru, 700);
        sh.record(Stage::Merge, 9);
        let sums = sh.summaries();
        assert_eq!(sums[Stage::Gru.index()].count, 2);
        assert_eq!(sums[Stage::Merge.index()].count, 1);
        assert_eq!(sums[Stage::Parse.index()].count, 0);
        assert_eq!(Stage::ALL.len(), STAGES);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn recorder_without_attachment_is_inert() {
        let mut r = StageRecorder::new();
        for _ in 0..100 {
            assert!(r.sample().is_none());
        }
        assert!(r.start().is_none());
    }

    #[test]
    fn recorder_samples_one_in_every_window() {
        let mut r = StageRecorder::new();
        let hists = Arc::new(StageHists::default());
        r.attach(Arc::clone(&hists));
        let mut clocks = 0;
        for _ in 0..(SAMPLE_EVERY * 4) {
            if let Some(mut clock) = r.sample() {
                clocks += 1;
                clock.lap(Stage::Extract);
                clock.lap(Stage::Gru);
            }
        }
        assert_eq!(clocks, 4);
        let sums = hists.summaries();
        assert_eq!(sums[Stage::Extract.index()].count, 4);
        assert_eq!(sums[Stage::Gru.index()].count, 4);
    }
}
