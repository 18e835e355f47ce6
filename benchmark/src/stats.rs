//! Percentiles over per-frame samples and median / quartiles over passes.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentile (`q` in `(0, 1]`) of an unsorted sample; the
/// slice is partially reordered. Nearest-rank never interpolates, so the
/// value is one that was actually measured.
pub fn percentile<T: Ord + Copy>(samples: &mut [T], q: f64) -> T {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let rank = (q * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Element-wise minimum over equally long rows: for every chunk (or frame)
/// the fastest time any pass measured for it.
///
/// On a shared box a pass is slowed, for milliseconds or for seconds at a
/// time, by whatever else the host runs; the slowdown is one-sided, so the
/// fastest of several measurements of the *same* work is the one least
/// disturbed. Taking it per chunk rather than per pass needs only one quiet
/// moment per chunk, not one quiet pass.
pub fn fastest<T: Ord + Copy>(rows: &[impl AsRef<[T]>]) -> Vec<T> {
    let (first, rest) = rows.split_first().expect("at least one pass");
    let mut out = first.as_ref().to_vec();
    for row in rest {
        let row = row.as_ref();
        assert_eq!(row.len(), out.len(), "passes measured different work");
        for (o, v) in out.iter_mut().zip(row) {
            *o = (*o).min(*v);
        }
    }
    out
}

/// Median and quartiles of a handful of per-pass values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the "exclusive" method — the one Python's
    /// `statistics.quantiles(values, n=4)` uses, so the spreads printed
    /// here can be checked against a driver that computes them that way.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no values");
        let mut x = values.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        if n == 1 {
            return Summary {
                median: x[0],
                q1: x[0],
                q3: x[0],
                n,
            };
        }
        let quartile = |k: usize| {
            let pos = k * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        Summary {
            median: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// A value that was measured once (a count, a byte size).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.001), 1);
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 0.99), 7);
        // Four samples: rank ceil(0.5 * 4) = 2, the lower median.
        let mut four = [40u32, 10, 30, 20];
        assert_eq!(percentile(&mut four, 0.5), 20);
    }

    #[test]
    fn fastest_is_the_column_wise_minimum() {
        let passes = vec![vec![5u64, 9, 7], vec![6, 8, 7], vec![9, 9, 1]];
        assert_eq!(fastest(&passes), [5, 8, 1]);
        assert_eq!(fastest(&passes[..1]), [5, 9, 7]);
    }

    #[test]
    fn summary_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        assert_eq!(s.iqr(), 3.0);
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // Ten values, as in the acceptance procedure.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn summary_of_one_value_has_no_spread() {
        let s = Summary::single(42.0);
        assert_eq!(
            (s.q1, s.median, s.q3, s.n, s.iqr()),
            (42.0, 42.0, 42.0, 1, 0.0)
        );
    }
}
