//! Order statistics, clock calibration and process memory.

use std::hint::black_box;
use std::time::Instant;

/// The `p`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; NaN when `xs` is empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Batches of back-to-back clock reads [`clock_cost_ns`] takes the median of.
pub const CLOCK_BATCHES: usize = 9;

/// Host nanoseconds one `Instant::now` costs: the median over
/// [`CLOCK_BATCHES`] batches of back-to-back calls.
pub fn clock_cost_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let batches: Vec<f64> = (0..CLOCK_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median(&batches)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
