//! Process counters, timed repetition and order statistics.

use std::time::Instant;

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which the
/// kernel ABI fixes at 100 on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, every thread included
/// (joined threads too), read from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime), counted from 1 with `pid` first;
    // `rest` starts at field 3.
    let ticks = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric CPU tick field") };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Wall and CPU seconds of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Times `f` once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Rep) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (out, Rep { wall_s, cpu_s })
}

/// Runs whole repetitions of `f` until `budget_s` wall seconds have passed
/// (at least `min_reps`), handing each repetition's result to `each`.
pub fn repeat_for<T>(
    budget_s: f64,
    min_reps: usize,
    mut f: impl FnMut() -> T,
    mut each: impl FnMut(T),
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < budget_s {
        let (out, rep) = time_once(&mut f);
        each(out);
        reps.push(rep);
    }
    reps
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`ceil(p·n)`, clamped to `1..=n`) of an
/// ascending, non-empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of per-repetition `pick(rep) / frames`, scaled by `scale`.
pub fn per_frame_median(reps: &[Rep], frames: usize, scale: f64, pick: fn(&Rep) -> f64) -> f64 {
    let v: Vec<f64> = reps
        .iter()
        .map(|r| pick(r) / frames as f64 * scale)
        .collect();
    median(&v)
}

/// Deterministic 64-bit mix (splitmix64 finalizer) for deriving input
/// seeds from the benchmark seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic `[0, 1)` draw keyed by `(seed, tag)`.
pub fn unit(seed: u64, tag: u64) -> f64 {
    (mix(seed, tag) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.5), 2.0);
        assert_eq!(nearest_rank(&v, 0.99), 4.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_counters_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
