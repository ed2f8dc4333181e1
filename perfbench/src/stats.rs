//! Order statistics, failure accounting and metric-name rules shared by
//! every workload.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie strictly above a reported percentile. A tail
/// percentile resting on fewer samples is one outlier away from a
/// different value, so it is not reported.
pub const MIN_TAIL: usize = 10;

/// The 1-based nearest rank of percentile `p` (`0 < p < 1`) among `n`
/// samples, or `None` when fewer than [`MIN_TAIL`] samples lie above it.
pub fn reportable_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then_some(rank)
}

/// The highest of the conventional percentiles that `n` samples can
/// report under [`reportable_rank`]'s rule, if any.
pub fn highest_reportable(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| reportable_rank(n, p).is_some())
}

/// Whole-nanosecond latencies in constant memory: one counter per
/// nanosecond below [`LatencyHist::EXACT_NS`], the rare slower samples
/// kept as they are. Percentiles are exact, as from the sorted samples.
pub struct LatencyHist {
    counts: Vec<u64>,
    slow: Vec<u64>,
    n: usize,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::EXACT_NS as usize],
            slow: Vec::new(),
            n: 0,
        }
    }
}

impl LatencyHist {
    /// Latencies below this many nanoseconds are counted, not stored.
    pub const EXACT_NS: u64 = 1 << 16;

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The `p`-th percentile of the recorded samples by nearest rank,
    /// under [`reportable_rank`]'s rule.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let rank = reportable_rank(self.n, p)? as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(ns as f64);
            }
        }
        self.slow.sort_unstable();
        Some(self.slow[(rank - seen - 1) as usize] as f64)
    }
}

/// Operations attempted and failed in one run. A failed operation is a
/// fit returning `Err`, a clean traffic row returning `Err`, a CLI run
/// exiting non-zero, or any correctness-check mismatch.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; on failure keeps `what()` for the report
    /// (the first few only).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.count(1, u64::from(!ok), what);
        ok
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
        if failed > 0 && self.first_failures.len() < 8 {
            self.first_failures.push(what());
        }
    }

    /// Operations counted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed operations counted so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted`; 1 when nothing was attempted, since a run
    /// that did no work cannot vouch for anything.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Descriptions of the first failures.
    pub fn failures(&self) -> &[String] {
        &self.first_failures
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the percentile straight from ascending samples.
    fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
        reportable_rank(sorted.len(), p).map(|rank| sorted[rank - 1])
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten above it.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, nine above it.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        // p99.9 needs 10 000 samples.
        assert_eq!(tail_percentile(&ramp(9_999), 0.999), None);
        assert_eq!(tail_percentile(&ramp(10_000), 0.999), Some(9_990.0));
        // The median of 20 samples has ten above it; of 19, only nine.
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn every_reported_percentile_keeps_ten_samples_beyond() {
        for n in [0, 1, 19, 20, 99, 100, 999, 1000, 46_000, 100_000] {
            let samples = ramp(n);
            match highest_reportable(n) {
                Some(p) => {
                    let v = tail_percentile(&samples, p).expect("reportable");
                    assert!(
                        samples.iter().filter(|&&s| s > v).count() >= MIN_TAIL,
                        "n={n}"
                    );
                }
                None => assert!(n < 20, "n={n}"),
            }
        }
        assert_eq!(highest_reportable(46_000), Some(0.999));
        assert_eq!(highest_reportable(1_000), Some(0.99));
        assert_eq!(highest_reportable(999), Some(0.9));
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_samples() {
        let mut state = 7u64;
        let mut samples = Vec::new();
        let mut hist = LatencyHist::default();
        for i in 0..5_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly fast; every 97th sample beyond the counted range, so
            // p99 and above come from the stored slow samples.
            let ns = if i % 97 == 0 {
                LatencyHist::EXACT_NS + (state >> 50)
            } else {
                (state >> 54) + 200
            };
            samples.push(ns as f64);
            hist.record(ns);
        }
        samples.sort_by(f64::total_cmp);
        assert_eq!(hist.len(), samples.len());
        for p in [0.5, 0.9, 0.99, 0.995, 0.999] {
            assert_eq!(hist.percentile(p), tail_percentile(&samples, p), "p{p}");
        }
    }

    #[test]
    fn failed_share_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 1.0, "no work done is not a pass");
        t.count(1_000, 0, || unreachable!("no failure to describe"));
        assert!(t.check(true, || unreachable!()));
        assert_eq!(t.failed_share(), 0.0);
        assert!(!t.check(false, || "cli exit 1".into()));
        t.count(998, 3, || "3 rows returned Err".into());
        assert_eq!((t.attempted(), t.failed()), (2_000, 4));
        assert_eq!(t.failed_share(), 0.002);
        assert_eq!(t.failures(), ["cli exit 1", "3 rows returned Err"]);
        // Failures never exceed attempts.
        t.count(1, 5, || "clamped".into());
        assert_eq!((t.attempted(), t.failed()), (2_001, 5));
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for good in [
            "fit_s",
            "serve.batch_ms",
            "row_p99_ns",
            "telemetry.overhead_pct",
            "9a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".fit", "_x", "fit s", "rows/s", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
