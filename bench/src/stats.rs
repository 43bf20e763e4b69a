//! Order statistics, timing helpers and the answer fingerprint.

use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A percentile smoothed over a band of ranks: the mean of the values
/// ranked within `width / 2` percentile points either side of `p`.
///
/// An op list is a mixture of a few cost classes (on Treebank `//NN`
/// fills ranks 49–76 %, the `//PP` spines the 10 % below; probes are
/// either refused at label lookup or cost an eigen solve), and the
/// nearest-rank median sits on a class boundary: between seeds it hopped
/// from one class to the other and moved `query_p50_us` by 22 % of its
/// median on `twig_paged` (8 % with a 10-point band, hence the p50s use
/// the midmean, `width` 50). Averaging a band makes the value continuous
/// in where the boundary falls.
pub fn band_percentile(v: &[f64], p: f64, width: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let lo = (((p - width / 2.0) / 100.0 * n).floor() as usize).min(s.len() - 1);
    let hi = (((p + width / 2.0) / 100.0 * n).ceil() as usize).clamp(lo + 1, s.len());
    s[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// `(q1, median, q3)` by the exclusive method — the values Python's
/// `statistics.quantiles(v, n=4)` returns, which is what the driver
/// computes its spreads from.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(v.len() >= 2, "quartiles need two values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Runs `f` and returns its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The median, over `repeats` batches, of one call's wall time in
/// seconds, where a batch is `batch` back-to-back calls of `f` — for
/// calls too short to time one at a time.
pub fn per_call_seconds(repeats: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

/// FNV-1a over a hit stream: the byte-for-byte identity of an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// An answer reduced to what a comparison needs: hit count and the
/// fingerprint of the `(doc, node)` stream in the order returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub hits: u64,
    pub fnv: u64,
}

impl Answer {
    pub fn of(hits: impl Iterator<Item = (u32, u32)>) -> Self {
        let mut f = Fnv::default();
        let mut n = 0u64;
        for (d, node) in hits {
            f.bytes(&d.to_le_bytes());
            f.bytes(&node.to_le_bytes());
            n += 1;
        }
        Answer { hits: n, fnv: f.0 }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 228.0);
        assert_eq!(percentile(&v, 50.0), 120.0);
    }

    #[test]
    fn band_percentile_averages_around_the_rank() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        // ranks 108..132 (values 109..=132)
        assert_eq!(
            band_percentile(&v, 50.0, 10.0),
            (109..=132).sum::<i32>() as f64 / 24.0
        );
        assert_eq!(
            band_percentile(&v, 95.0, 5.0),
            (223..=234).sum::<i32>() as f64 / 12.0
        );
        assert_eq!(band_percentile(&[7.0], 95.0, 5.0), 7.0);
    }

    #[test]
    fn answers_differ_on_order() {
        let a = Answer::of([(1, 2), (3, 4)].into_iter());
        let b = Answer::of([(3, 4), (1, 2)].into_iter());
        assert_eq!(a.hits, 2);
        assert_ne!(a.fnv, b.fnv);
    }
}
