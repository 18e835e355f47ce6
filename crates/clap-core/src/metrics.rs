//! Detection and localization metrics: ROC/AUC, EER, Top-N hit rate.

use serde::{Deserialize, Serialize};

/// One operating point on the ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    pub threshold: f32,
    pub tpr: f32,
    pub fpr: f32,
}

/// Full ROC curve from benign (negative) and adversarial (positive)
/// scores. Points are ordered from the most permissive threshold (all
/// positive) to the strictest (all negative).
pub fn roc_curve(benign: &[f32], adversarial: &[f32]) -> Vec<RocPoint> {
    let mut thresholds: Vec<f32> = benign.iter().chain(adversarial).copied().collect();
    thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    thresholds.dedup();

    let mut curve = Vec::with_capacity(thresholds.len() + 2);
    curve.push(RocPoint {
        threshold: f32::NEG_INFINITY,
        tpr: 1.0,
        fpr: 1.0,
    });
    for &th in &thresholds {
        let tp = adversarial.iter().filter(|&&s| s > th).count() as f32;
        let fp = benign.iter().filter(|&&s| s > th).count() as f32;
        curve.push(RocPoint {
            threshold: th,
            tpr: if adversarial.is_empty() {
                0.0
            } else {
                tp / adversarial.len() as f32
            },
            fpr: if benign.is_empty() {
                0.0
            } else {
                fp / benign.len() as f32
            },
        });
    }
    curve
}

/// Area under the ROC curve via the Mann–Whitney U statistic:
/// `P(adv > benign) + ½ P(adv = benign)`. Ties and tiny sample sets are
/// handled exactly, unlike trapezoid integration over a coarse curve.
pub fn auc_roc(benign: &[f32], adversarial: &[f32]) -> f32 {
    if benign.is_empty() || adversarial.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &a in adversarial {
        for &b in benign {
            if a > b {
                wins += 1.0;
            } else if a == b {
                wins += 0.5;
            }
        }
    }
    (wins / (benign.len() as f64 * adversarial.len() as f64)) as f32
}

/// Equal Error Rate: the error level where the false-positive rate equals
/// the false-negative rate, linearly interpolated along the ROC curve.
pub fn equal_error_rate(benign: &[f32], adversarial: &[f32]) -> f32 {
    let mut curve = roc_curve(benign, adversarial);
    // Walk from permissive to strict; find where FNR (=1-TPR) crosses FPR.
    curve.sort_by(|a, b| {
        b.fpr
            .partial_cmp(&a.fpr)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut prev: Option<&RocPoint> = None;
    for pt in &curve {
        let fnr = 1.0 - pt.tpr;
        if fnr >= pt.fpr {
            // Crossed between prev and pt: interpolate on the gap.
            if let Some(pr) = prev {
                let f0 = pr.fpr - (1.0 - pr.tpr);
                let f1 = pt.fpr - (1.0 - pt.tpr);
                if (f0 - f1).abs() > 1e-9 {
                    let t = f0 / (f0 - f1);
                    let eer = pr.fpr + t * (pt.fpr - pr.fpr);
                    return eer.clamp(0.0, 1.0);
                }
            }
            return ((pt.fpr + fnr) / 2.0).clamp(0.0, 1.0);
        }
        prev = Some(pt);
    }
    0.5
}

/// Top-N localization hit: does the identified packet fall within a window
/// of `n` packets centred on any true adversarial packet? (§4.2: Top-5 =
/// within five packets, Top-3 = within three, Top-1 = exact.)
pub fn top_n_hit(identified: usize, truth: &[usize], n: usize) -> bool {
    let radius = (n.max(1) - 1) / 2;
    truth.iter().any(|&t| identified.abs_diff(t) <= radius)
}

/// Whole-run health roll-up of the sharded engine's per-shard counters —
/// the shape the bench binaries serialize and the CI gates check. Totals
/// only; the per-shard breakdown stays on [`ShardStats`].
///
/// [`ShardStats`]: crate::ShardStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Packets dispatched across all shards.
    pub pushed: u64,
    /// Packets scored across all shards.
    pub scored: u64,
    /// Packets shed (overload policy, watchdog cut-off, or a dying
    /// worker's in-flight loss).
    pub dropped: u64,
    /// Packets quarantined after a supervised scoring panic.
    pub quarantined: u64,
    /// Flow-table rebuilds across all shards.
    pub restarts: u64,
    /// Stalled pushes (the backpressure signal).
    pub full_waits: u64,
}

impl ShardHealth {
    /// Sums one run's per-shard stats into the roll-up.
    pub fn of(stats: &[crate::ShardStats]) -> ShardHealth {
        let mut h = ShardHealth::default();
        for s in stats {
            h.pushed += s.pushed;
            h.scored += s.packets;
            h.dropped += s.dropped;
            h.quarantined += s.quarantined;
            h.restarts += s.restarts;
            h.full_waits += s.full_waits;
        }
        h
    }

    /// Verifies the exact accounting invariant
    /// `pushed == scored + dropped + quarantined` on every shard,
    /// naming the first violating shard.
    pub fn check_accounting(stats: &[crate::ShardStats]) -> Result<(), String> {
        for s in stats {
            if s.pushed != s.packets + s.dropped + s.quarantined {
                return Err(format!(
                    "shard {} accounting broken: pushed {} != scored {} + dropped {} + quarantined {}",
                    s.shard, s.pushed, s.packets, s.dropped, s.quarantined
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_separation() {
        let benign = [0.1, 0.2, 0.3];
        let adv = [0.9, 0.8, 0.7];
        assert_eq!(auc_roc(&benign, &adv), 1.0);
        assert_eq!(auc_roc(&adv, &benign), 0.0);
    }

    #[test]
    fn auc_random_is_half() {
        let a = [0.5, 0.5, 0.5];
        assert_eq!(auc_roc(&a, &a), 0.5);
    }

    #[test]
    fn auc_partial_overlap() {
        let benign = [0.1, 0.4];
        let adv = [0.3, 0.6];
        // pairs: (0.3>0.1)=1, (0.3<0.4)=0, (0.6>0.1)=1, (0.6>0.4)=1 -> 3/4
        assert!((auc_roc(&benign, &adv) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn eer_extremes() {
        let benign = [0.0, 0.1, 0.2];
        let adv = [0.8, 0.9, 1.0];
        assert!(equal_error_rate(&benign, &adv) < 0.01);
        // Fully swapped: EER near 1... symmetric metric peaks at 0.5+.
        let eer_bad = equal_error_rate(&adv, &benign);
        assert!(eer_bad > 0.5);
    }

    #[test]
    fn eer_half_overlap() {
        // Half of each population on either side.
        let benign = [0.0, 0.0, 1.0, 1.0];
        let adv = [0.0, 0.0, 1.0, 1.0];
        let eer = equal_error_rate(&benign, &adv);
        assert!((eer - 0.5).abs() < 0.26, "eer = {eer}");
    }

    #[test]
    fn roc_is_monotone() {
        let benign = [0.1, 0.3, 0.2, 0.15];
        let adv = [0.25, 0.5, 0.45, 0.2];
        let curve = roc_curve(&benign, &adv);
        for w in curve.windows(2) {
            assert!(w[1].threshold >= w[0].threshold || w[0].threshold == f32::NEG_INFINITY);
            assert!(w[1].tpr <= w[0].tpr + 1e-6);
            assert!(w[1].fpr <= w[0].fpr + 1e-6);
        }
        assert_eq!(curve[0].tpr, 1.0);
        assert_eq!(curve[0].fpr, 1.0);
        let last = curve.last().unwrap();
        assert_eq!(last.tpr, 0.0);
        assert_eq!(last.fpr, 0.0);
    }

    #[test]
    fn empty_inputs_are_neutral() {
        assert_eq!(auc_roc(&[], &[1.0]), 0.5);
        assert_eq!(auc_roc(&[1.0], &[]), 0.5);
    }

    #[test]
    fn top_n_semantics() {
        // Top-1: exact only.
        assert!(top_n_hit(5, &[5], 1));
        assert!(!top_n_hit(5, &[6], 1));
        // Top-3: within one packet.
        assert!(top_n_hit(5, &[6], 3));
        assert!(top_n_hit(5, &[4], 3));
        assert!(!top_n_hit(5, &[7], 3));
        // Top-5: within two packets.
        assert!(top_n_hit(5, &[7], 5));
        assert!(!top_n_hit(5, &[8], 5));
        // Multiple ground-truth positions.
        assert!(top_n_hit(5, &[100, 6], 3));
        assert!(!top_n_hit(5, &[], 5));
    }

    fn stat(shard: usize, pushed: u64, scored: u64, dropped: u64, quar: u64) -> crate::ShardStats {
        crate::ShardStats {
            shard,
            pushed,
            packets: scored,
            flows_closed: 0,
            full_waits: 1,
            dropped,
            quarantined: quar,
            restarts: quar,
            stream: crate::StreamStats::default(),
        }
    }

    #[test]
    fn shard_health_rolls_up_and_checks_accounting() {
        let stats = [stat(0, 10, 8, 1, 1), stat(1, 5, 5, 0, 0)];
        let h = ShardHealth::of(&stats);
        assert_eq!(h.pushed, 15);
        assert_eq!(h.scored, 13);
        assert_eq!(h.dropped, 1);
        assert_eq!(h.quarantined, 1);
        assert_eq!(h.restarts, 1);
        assert_eq!(h.full_waits, 2);
        assert!(ShardHealth::check_accounting(&stats).is_ok());
        let broken = [stat(0, 10, 8, 1, 0)];
        let err = ShardHealth::check_accounting(&broken).unwrap_err();
        assert!(err.contains("shard 0"), "{err}");
    }
}
