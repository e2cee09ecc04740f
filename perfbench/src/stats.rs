//! Order statistics, failure accounting and memory readings shared by
//! every workload.

use std::time::Duration;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// A tail percentile together with the percentile the sample supported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The nearest-rank percentile actually reported, in percent.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
}

/// The highest nearest-rank percentile at or below `cap` (in percent)
/// with at least [`MIN_BEYOND`] samples above its rank. Small samples
/// never report below the median: with fewer than `2 · MIN_BEYOND`
/// samples the tail is the median. `None` when `xs` is empty.
pub fn tail(xs: &[f64], cap: f64) -> Option<Tail> {
    let n = xs.len();
    let mid = median(xs)?;
    let s = sorted(xs);
    let cap_rank = (cap * n as f64 / 100.0).ceil().max(1.0) as usize;
    let rank = cap_rank.min(n.saturating_sub(MIN_BEYOND));
    if rank < n.div_ceil(2) || rank == 0 {
        return Some(Tail {
            percentile: 50.0,
            value: mid,
        });
    }
    let percentile = if rank == cap_rank {
        cap
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Tail {
        percentile,
        value: s[rank - 1],
    })
}

/// The fastest time of each segment over repetitions of the same work:
/// element `i` is the smallest `reps[r][i]`. Other tenants of a shared
/// host only ever add time, so the element-wise minimum of a few
/// repetitions estimates the work's own cost far more steadily than their
/// mean. `None` when `reps` is empty or its rows differ in length.
pub fn fastest_segments(reps: &[Vec<f64>]) -> Option<Vec<f64>> {
    let first = reps.first()?;
    if reps.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed. A failure is a wrong output, a run
/// error, a determinism mismatch, or a request that was rejected, shed,
/// timed out or dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ledger {
    /// Count `n` operations, `failed` of which failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        debug_assert!(failed <= n, "more failures than attempts");
        self.attempted += n;
        self.failed += failed;
    }

    /// Failed operations over attempted ones (0 when nothing was tried).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The complement of [`Ledger::failed_share`]: the share of attempted
    /// operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed_share()
    }
}

/// Peak resident set size in kB from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line); `None` when the line is missing or malformed.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set size in MB (`None` off Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_with_exactly_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0).expect("non-empty");
        assert_eq!(
            t,
            Tail {
                percentile: 99.0,
                value: 990.0
            }
        );
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn tail_lowers_the_percentile_for_short_samples() {
        let xs: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let t = tail(&xs, 99.0).expect("non-empty");
        assert_eq!(
            t,
            Tail {
                percentile: 98.0,
                value: 490.0
            }
        );
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_the_median() {
        let xs = [5.0, 1.0, 9.0];
        assert_eq!(
            tail(&xs, 99.0),
            Some(Tail {
                percentile: 50.0,
                value: 5.0
            })
        );
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn fastest_segments_take_each_segment_at_its_minimum() {
        let reps = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 5.0, 3.5],
            vec![3.0, 2.0, 9.0],
        ];
        assert_eq!(fastest_segments(&reps), Some(vec![2.0, 1.0, 3.0]));
        assert_eq!(fastest_segments(&reps[..1]), Some(vec![4.0, 1.0, 3.0]));
        assert_eq!(fastest_segments(&[]), None);
        assert_eq!(fastest_segments(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn ledger_shares() {
        let mut l = Ledger::default();
        assert_eq!(l.failed_share(), 0.0);
        l.add(8, 0);
        l.add(2, 1);
        assert_eq!(
            l,
            Ledger {
                attempted: 10,
                failed: 1
            }
        );
        assert!((l.failed_share() - 0.1).abs() < 1e-12);
        assert!((l.ok_share() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
