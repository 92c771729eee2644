//! Exact order statistics over raw samples, and the host memory
//! high-water mark.
//!
//! Every percentile the benchmark prints comes from here, computed from
//! the full sample list (never from log2 buckets), and is printed next
//! to its sample count.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by the nearest-rank
/// method: the smallest sample such that at least `p`% of all samples
/// are at or below it. Exact — always one of the samples. `None` for an
/// empty list.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (mean of the two middle samples for an even count).
/// `None` for an empty list.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Sum of `values` divided by `count`, or 0 when `count` is 0.
pub fn ratio(values: f64, count: f64) -> f64 {
    if count == 0.0 {
        0.0
    } else {
        values / count
    }
}

/// Reads of the time the hypervisor took from this machine's virtual
/// CPUs (`steal` in `/proc/stat`), to tell how much of an interval the
/// program could not run.
pub struct Steal(Option<f64>);

impl Steal {
    /// Stolen CPU-seconds so far, summed over CPUs, and the CPU count.
    fn read() -> Option<(f64, usize)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let total = stat.lines().find(|l| l.starts_with("cpu "))?;
        let ticks: f64 = total.split_whitespace().nth(8)?.parse().ok()?;
        let cpus = stat
            .lines()
            .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
            .count();
        // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
        Some((ticks / 100.0, cpus.max(1)))
    }

    pub fn start() -> Steal {
        Steal(Self::read().map(|(s, _)| s))
    }

    /// The share of an interval of `wall_s` seconds since [`Steal::start`]
    /// that was stolen from the average CPU, in [0, 0.9]; 0 where the
    /// platform does not report steal.
    pub fn share(&self, wall_s: f64) -> f64 {
        match (self.0, Self::read()) {
            (Some(before), Some((after, cpus))) if wall_s > 0.0 => {
                ((after - before) / cpus as f64 / wall_s).clamp(0.0, 0.9)
            }
            _ => 0.0,
        }
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
    }

    #[test]
    fn percentiles_ignore_input_order_and_handle_small_lists() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 99.0), Some(9.0));
        assert_eq!(percentile(&[7.25], 99.0), Some(7.25));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_exact_not_a_bucket_bound() {
        // A log2-bucket histogram would report 524287 for this p50.
        let xs = [300_001.0, 300_002.0, 300_003.0];
        assert_eq!(percentile(&xs, 50.0), Some(300_002.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 4.0), 1.5);
    }
}
