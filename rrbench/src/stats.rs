//! Order statistics and process-memory helpers for the benchmark's reports.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three quartile cut points `(q1, q2, q3)` by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method), so a spread computed here matches one computed from the printed
/// values. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The highest whole percentile, capped at `cap`, that leaves at least ten
/// of `n` samples strictly beyond its nearest-rank position. `None` when
/// `n` is too small for any percentile to have ten samples beyond it.
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    (1..=cap.min(99))
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)
}

/// The `p`-th percentile of `values` by nearest rank (the smallest value
/// with at least `p`% of the samples at or below it). `None` when empty.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), p).max(1);
    Some(sorted[rank - 1])
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (u64::from(p) * n as u64).div_ceil(100) as usize
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Job indices in wall-time order, fastest first.
///
/// The host this benchmark was built on switches between a fast and a
/// markedly slower speed for seconds to minutes at a time, so a run's median
/// job is fast or slow by luck; its fastest jobs are the ones that ran at
/// the fast speed.
pub fn fastest_first(walls: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order
}

/// The step latencies of the fewest leading jobs of `order` that together
/// hold at least `min_steps` steps (all jobs' steps if they hold fewer),
/// and how many jobs that took.
pub fn leading_steps(order: &[usize], steps: &[Vec<f64>], min_steps: usize) -> (Vec<f64>, usize) {
    let mut out = Vec::new();
    let mut jobs = 0;
    for &i in order {
        if out.len() >= min_steps {
            break;
        }
        out.extend_from_slice(&steps[i]);
        jobs += 1;
    }
    (out, jobs)
}

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text into mebibytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb as f64 / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set in mebibytes, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0, 95), None);
        assert_eq!(tail_percentile(10, 95), None);
        assert_eq!(tail_percentile(11, 95), Some(9));
        assert_eq!(tail_percentile(20, 95), Some(50));
        assert_eq!(tail_percentile(100, 95), Some(90));
        assert_eq!(tail_percentile(199, 95), Some(94));
        assert_eq!(tail_percentile(200, 95), Some(95));
        assert_eq!(tail_percentile(5000, 95), Some(95));
        for n in 11..400 {
            let p = tail_percentile(n, 95).expect("eleven or more samples");
            assert!(n - nearest_rank(n, p) >= 10, "n={n} p={p}");
            if p < 95 {
                assert!(
                    n - nearest_rank(n, p + 1) < 10,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95), Some(95.0));
        assert_eq!(percentile(&hundred, 50), Some(50.0));
        assert_eq!(percentile(&[7.0], 95), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn fastest_jobs_and_their_steps() {
        let walls = [3.0, 1.0, 4.0, 1.5, 9.0, 2.0];
        let order = fastest_first(&walls);
        assert_eq!(order, [1, 3, 5, 0, 2, 4]);
        let steps: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i); 100]).collect();
        // Two jobs of 100 steps reach 200: the fastest two.
        let (held, jobs) = leading_steps(&order, &steps, 200);
        assert_eq!((held.len(), jobs), (200, 2));
        assert!(held.iter().all(|&s| s == 1.0 || s == 3.0));
        // 201 steps need a third job.
        assert_eq!(leading_steps(&order, &steps, 201).1, 3);
        // Too few steps in total: every job is taken.
        let (held, jobs) = leading_steps(&order, &steps, 10_000);
        assert_eq!((held.len(), jobs), (600, 6));
        assert!(fastest_first(&[]).is_empty());
    }

    #[test]
    fn vm_hwm_parse() {
        let status = "Name:\trrbench\nVmPeak:\t  300000 kB\nVmHWM:\t  133120 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(130.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t junk kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
